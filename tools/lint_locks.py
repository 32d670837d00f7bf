#!/usr/bin/env python3
"""Locking-discipline lint for the vos kernel sources.

Rules, all mechanical (marker language lives in lint_markers.py):

1. SpinGuard only: no naked `.Acquire()` / `->Acquire()` / `.Release()` /
   `->Release()` calls in src/**. RAII scoping is what keeps the lockdep
   held-stack, the IRQ-off refcount, and exception unwinding consistent.
   Lines that genuinely need a naked call carry a `// lockdep: naked-ok`
   marker explaining why — but the marker is only honored in the files
   allowed to play that game (the SpinLock implementation itself and the
   scheduler's xv6 sleep-lock dance). Anywhere else, even a justified-looking
   naked call is a finding: move the code or use SpinGuard. Only
   empty-argument calls match, so unrelated methods like
   `Bcache::Release(buf)` are untouched.

2. Every SpinLock declaration names its lock class with a string literal
   (`SpinLock lock_{"bcache"};` or `SpinLock l("sched")`): the class name
   keys the lockdep order graph, so an unnamed lock would be invisible to
   the validator's reports.

3. The class name must come from lint_markers.KNOWN_CLASSES, which mirrors
   the lock-hierarchy table in DESIGN.md §7. A typo ("slab_depot" for
   "slab-depot") would otherwise silently split a class in two and dodge
   both the order graph and the /proc/lockdep report. Adding a lock class
   is a DESIGN.md change first, then a lint_markers.py change.

4. The allowlist itself must stay alphabetically sorted (checked here), so
   additions stay one-line diffs.

5. No `thread_local` in src/kernel/ except the one ExecContext pointer in
   exec_context.{h,cc}. Tasks are fibers sharing one host thread, so a
   thread_local there would be shared by every task: per-context state
   belongs in ExecContext, which each switch swaps.

Exit status 0 = clean, 1 = findings (printed one per line, grep-style).
"""

import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import lint_markers as m

# The only files where `// lockdep: naked-ok` is honored: the SpinLock
# implementation (it *is* the Acquire/Release definition site) and the
# scheduler's SleepOn release-park-reacquire dance.
NAKED_OK_FILES = {
    "src/kernel/sched.cc",
    "src/kernel/spinlock.cc",
    "src/kernel/spinlock.h",
}

# Rule 5: the ExecContext definition, the one place kernel code may declare
# host-thread storage, and the only thing it may declare there.
EXEC_CONTEXT_FILES = {
    "src/kernel/exec_context.cc",
    "src/kernel/exec_context.h",
}
THREAD_LOCAL = re.compile(r"\bthread_local\b")
EXEC_CONTEXT_PTR = re.compile(r"\bconstinit\s+thread_local\s+ExecContext\s*\*\s*tls_exec_context\b")


def lint_file(path: pathlib.Path) -> list[str]:
    findings = []
    rel = path.relative_to(m.REPO)
    in_kernel = rel.parts[:2] == ("src", "kernel")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        code = m.strip_comment(line)
        if in_kernel and THREAD_LOCAL.search(code):
            if str(rel) not in EXEC_CONTEXT_FILES or not EXEC_CONTEXT_PTR.search(code):
                findings.append(
                    f"{rel}:{lineno}: thread_local in the kernel — tasks share one "
                    f"host thread, so per-context state goes in ExecContext "
                    f"(src/kernel/exec_context.h)"
                )
        if m.NAKED_CALL.search(line):
            if not m.NAKED_OK.search(line):
                findings.append(
                    f"{rel}:{lineno}: naked Acquire()/Release() — use SpinGuard, "
                    f"or justify with '// lockdep: naked-ok (<reason>)'"
                )
            elif str(rel) not in NAKED_OK_FILES:
                findings.append(
                    f"{rel}:{lineno}: '// lockdep: naked-ok' is only honored in "
                    f"{', '.join(sorted(NAKED_OK_FILES))} — use SpinGuard here"
                )
        decl = m.SPINLOCK_DECL.match(line)
        if decl:
            rest = decl.group(2).strip()
            # `SpinLock& lk` parameters and forward uses don't declare a lock.
            if decl.group(1) in ("lock", "l") and rest.startswith(")"):
                continue
            marker = m.CLASS_MARKER.search(line)
            if not m.NAMED_INIT.match(rest):
                if marker:
                    name = marker.group(1)
                    if name not in m.KNOWN_CLASSES:
                        findings.append(
                            f'{rel}:{lineno}: lockdep class marker "{name}" is not '
                            f"in the lint allowlist — add it to DESIGN.md §7 and "
                            f"tools/lint_markers.py KNOWN_CLASSES together"
                        )
                    continue
                findings.append(
                    f"{rel}:{lineno}: SpinLock '{decl.group(1)}' has no string-literal "
                    f"class name — lockdep cannot report it (runtime-built names may "
                    f"use '// lockdep: class <name>')"
                )
                continue
            name = rest.split('"')[1]
            if name not in m.KNOWN_CLASSES:
                findings.append(
                    f'{rel}:{lineno}: SpinLock class "{name}" is not in the '
                    f"lint allowlist — add it to DESIGN.md §7 and "
                    f"tools/lint_markers.py KNOWN_CLASSES together"
                )
    return findings


def main() -> int:
    findings = m.check_classes_sorted()
    for path in m.source_files():
        findings.extend(lint_file(path))
    for f in findings:
        print(f)
    if findings:
        print(f"lint_locks: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_locks: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
