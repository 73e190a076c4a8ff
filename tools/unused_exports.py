#!/usr/bin/env python3
"""Fail when an exported value has no caller outside its own module.

Every `val` declared in lib/*/*.mli must be named, as a whole word, by
some .ml or .mli file outside its own module (the module's .ml and
.mli) under lib, bin, bench, test, perfbench or examples. A value used
only inside its module belongs out of the interface; a value used
nowhere belongs out of the code.

Run from the repository root:  python3 tools/unused_exports.py
Exit status 0 when every export has a caller, 1 otherwise.
"""
import pathlib
import re
import sys

ROOTS = ["lib", "bin", "bench", "test", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def main():
    files = [p for r in ROOTS for p in sorted(pathlib.Path(r).rglob("*"))
             if p.suffix in (".ml", ".mli") and "_build" not in p.parts]
    words = {p: set(WORD.findall(p.read_text())) for p in files}
    unused = []
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        for m in VAL.finditer(mli.read_text()):
            name = m.group(1)
            if not any(name in ws for p, ws in words.items() if p not in own):
                line = mli.read_text().count("\n", 0, m.start()) + 1
                unused.append(f"{mli}:{line}: val {name} has no caller "
                              "outside its module")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} unused export(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
