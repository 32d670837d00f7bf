#!/usr/bin/env python3
"""Racedet annotation-discipline lint.

The dynamic checker (src/kernel/racedet.h) only sees accesses that go
through the RD_* macros — an unannotated raw access is invisible to it.
This lint closes that hole statically: every field marked

    <type> name_;  // racedet: shared (<guard>)

may only be touched through RD_READ(...)/RD_WRITE(...), inside a scope
guarded by RD_EXCLUDE_SCOPE("reason"), or on a line carrying an explicit
`// racedet: ok (<reason>)` escape.

Scoping: a marked field is tied to its compilation unit by file stem —
`sched.h` fields are checked across `sched.h` + `sched.cc` in the same
directory (kernel-style "the subsystem owns its state"). A raw access from
an unrelated file escapes this lint but not the dynamic checker.

Mechanical details:
  - RD_READ/RD_WRITE/RD_ASSERT_HELD argument spans are removed with balanced
    parenthesis matching before searching, so `RD_READ((*it)->dirty)`
    does not trip on `dirty`.
  - Exclusion regions are tracked by brace depth: RD_EXCLUDE_SCOPE is an
    RAII object, live until its enclosing brace closes.
  - Comments and string literals are stripped; markers live in comments.
  - Every RD_EXCLUDE_SCOPE must carry a non-empty reason string, and every
    `// racedet: shared` marker must sit on a parsable field declaration
    (otherwise it silently guards nothing).

Exit status 0 = clean, 1 = findings (printed one per line, grep-style).
"""

import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import lint_markers as m

RD_MACROS = ("RD_READ", "RD_WRITE", "RD_ASSERT_HELD")
EXCLUDE_SCOPE = re.compile(r"\bRD_EXCLUDE_SCOPE\s*\(")
EXCLUDE_REASON = re.compile(r'\bRD_EXCLUDE_SCOPE\s*\(\s*"([^"]*)"')


def strip_strings(code: str) -> str:
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', code)


def strip_rd_macros(code: str) -> str:
    """Removes RD_READ(...)/RD_WRITE(...)/RD_ASSERT_HELD(...) spans, balanced."""
    out = []
    i = 0
    while i < len(code):
        for macro in RD_MACROS:
            if code.startswith(macro, i) and not (i > 0 and (code[i - 1].isalnum() or code[i - 1] == "_")):
                j = i + len(macro)
                while j < len(code) and code[j].isspace():
                    j += 1
                if j < len(code) and code[j] == "(":
                    depth = 0
                    while j < len(code):
                        if code[j] == "(":
                            depth += 1
                        elif code[j] == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    i = j + 1
                    break
        else:
            out.append(code[i])
            i += 1
    return "".join(out)


def unit_of(path: pathlib.Path):
    """(directory, stem) — sched.h and sched.cc form one unit."""
    return (path.parent, path.stem)


def collect_marked_fields(files):
    """{unit: [(field, decl_path, decl_line)]}, plus marker findings."""
    fields = {}
    findings = []
    for path in files:
        rel = path.relative_to(m.REPO)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not m.RACEDET_SHARED.search(line):
                continue
            name = m.declared_field(line)
            if name is None:
                findings.append(
                    f"{rel}:{lineno}: '// racedet: shared' marker is not on a "
                    f"parsable field declaration — it guards nothing"
                )
                continue
            fields.setdefault(unit_of(path), []).append((name, path, lineno))
    return fields, findings


def lint_unit_file(path: pathlib.Path, names) -> list[str]:
    findings = []
    rel = path.relative_to(m.REPO)
    patterns = {n: re.compile(rf"\b{re.escape(n)}\b") for n in names}
    depth = 0
    exclude_depths = []  # brace depths at which an RD_EXCLUDE_SCOPE is live
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        code = strip_strings(m.strip_comment(line))
        if code.lstrip().startswith("#"):
            # Preprocessor lines (including the RD_* macro definitions
            # themselves) are not accesses; keep brace depth honest.
            depth += code.count("{") - code.count("}")
            continue
        while exclude_depths and depth < exclude_depths[-1]:
            exclude_depths.pop()
        excluded = bool(exclude_depths) and depth >= exclude_depths[-1]
        if EXCLUDE_SCOPE.search(code):
            reason = EXCLUDE_REASON.search(strip_strings_keep(line))
            if reason is None or not reason.group(1).strip():
                findings.append(
                    f"{rel}:{lineno}: RD_EXCLUDE_SCOPE needs a non-empty reason "
                    f"string documenting why this region is lock-free by design"
                )
            exclude_depths.append(depth)
            excluded = True
        opens = code.count("{")
        closes = code.count("}")
        if not excluded and not m.RACEDET_SHARED.search(line) and not m.RACEDET_OK.search(line):
            remainder = strip_rd_macros(code)
            for name, pat in patterns.items():
                if pat.search(remainder):
                    findings.append(
                        f"{rel}:{lineno}: raw access to racedet-shared field "
                        f"'{name}' — wrap in RD_READ/RD_WRITE, move into an "
                        f"RD_EXCLUDE_SCOPE region, or justify with "
                        f"'// racedet: ok (<reason>)'"
                    )
        depth += opens - closes
        while exclude_depths and depth < exclude_depths[-1]:
            exclude_depths.pop()
    return findings


def strip_strings_keep(line: str) -> str:
    """Comment-stripped line with string contents kept (for reason checks)."""
    return m.strip_comment(line)


def main() -> int:
    files = m.source_files()
    fields, findings = collect_marked_fields(files)
    by_unit = {}
    for path in files:
        by_unit.setdefault(unit_of(path), []).append(path)
    for unit, marked in sorted(fields.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        names = sorted({name for name, _, _ in marked})
        for path in by_unit.get(unit, []):
            findings.extend(lint_unit_file(path, names))
    # Reason hygiene for files with exclusions but no marked fields (e.g.
    # trace.cc's documentary scopes).
    marked_units = set(fields)
    for unit, paths in sorted(by_unit.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        if unit in marked_units:
            continue
        for path in paths:
            findings.extend(lint_unit_file(path, []))
    total_fields = sum(len(v) for v in fields.values())
    for f in findings:
        print(f)
    if findings:
        print(f"lint_shared_state: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_shared_state: clean ({total_fields} shared fields across "
          f"{len(fields)} units)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
