#!/usr/bin/env python3
"""Symbolizes hostprof samples and prints each function's share of them.

    python3 tools/hostprof.py <HOSTPROF_OUT dir> [--top 30] [--exe perfbench]

tools/hostprof.c (an LD_PRELOAD library) leaves <pid>.pcs and <pid>.maps in
the directory for every process it sampled. Each PC is mapped to the object
its mapping names, turned into that object's link-time address through its
ELF program headers, and named after the nearest preceding symbol from
`nm -C` (the dynamic symbols when the object is stripped, so a stripped
libc's internals land on the nearest exported name). Shares are of all
samples kept from the selected processes; --exe keeps only processes whose
main executable's path contains the given text.
"""

import argparse
import bisect
import collections
import glob
import os
import struct
import subprocess
import sys


def parse_maps(path):
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 5:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip() if len(parts) == 6 else ""
            maps.append((lo, hi, int(parts[2], 16), name))
    maps.sort()
    return maps


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) of a 64-bit little-endian ELF, or None."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if len(head) < 64 or head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
                return None
            phoff, = struct.unpack_from("<Q", head, 32)
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return None
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


class Symbols:
    def __init__(self, path):
        self.addrs, self.names = [], []
        for dynamic in (False, True):
            cmd = ["nm", "-C", "-n", "--defined-only"] + (["-D"] if dynamic else []) + [path]
            try:
                out = subprocess.run(cmd, capture_output=True, text=True, check=False).stdout
            except OSError:
                return
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWiu":
                    self.addrs.append(int(parts[0], 16))
                    self.names.append(parts[2])
            if self.addrs:
                return

    def name(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--exe", default="", help="keep processes whose main executable path contains this")
    args = ap.parse_args()

    segments, symbols = {}, {}
    counts = collections.Counter()
    total = dropped = procs = 0
    for pcs_path in sorted(glob.glob(os.path.join(args.dir, "*.pcs"))):
        maps_path = pcs_path[:-4] + ".maps"
        if not os.path.exists(maps_path):
            continue
        maps = parse_maps(maps_path)
        exe = next((m[3] for m in maps if m[3].startswith("/")), "")
        if args.exe and args.exe not in exe:
            continue
        procs += 1
        starts = [m[0] for m in maps]
        with open(pcs_path) as f:
            for line in f:
                if line.startswith("#"):
                    dropped += int(line.split()[-1])
                    continue
                pc = int(line, 16)
                total += 1
                i = bisect.bisect_right(starts, pc) - 1
                if i < 0 or pc >= maps[i][1]:
                    counts[("[unmapped]", "")] += 1
                    continue
                lo, _, off, obj = maps[i]
                if not obj.startswith("/"):
                    counts[(obj or "[anon]", "")] += 1
                    continue
                if obj not in segments:
                    segments[obj] = load_segments(obj)
                    symbols[obj] = Symbols(obj)
                file_off = pc - lo + off
                vaddr = None
                for p_offset, p_vaddr, p_filesz in segments[obj] or ():
                    if p_offset <= file_off < p_offset + p_filesz:
                        vaddr = p_vaddr + (file_off - p_offset)
                        break
                fn = symbols[obj].name(vaddr) if vaddr is not None else None
                counts[(fn or "[unknown]", os.path.basename(obj))] += 1

    if total == 0:
        sys.exit("hostprof: no samples in " + args.dir)
    print(f"# {total} samples from {procs} process(es), {dropped} dropped")
    print(f"{'share':>7} {'samples':>9}  function  [object]")
    for (fn, obj), n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}% {n:9d}  {fn}  [{obj}]")


if __name__ == "__main__":
    main()
