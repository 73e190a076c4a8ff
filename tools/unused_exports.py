#!/usr/bin/env python3
"""Fail when an exported value has no caller outside its own module.

Every `val` declared in lib/*/*.mli must be used by some .ml or .mli
file outside its own module (the module's .ml and .mli) under lib, bin,
bench, test, perfbench or examples. A value used only inside its module
belongs out of the interface; a value used nowhere belongs out of the
code.

- A top-level `val` needs its name as a whole word in such a file.
- A `val` declared inside `module X : sig ... end` needs a qualified
  use, `X.name`, or its bare name in a file that opens or includes X
  (`open X`, `let open X in`, `X.( ... )`, or a local alias
  `module A = ... X` used as `A.name`). Comments do not count.

Run from the repository root:  python3 tools/unused_exports.py
Exit status 0 when every export has a caller, 1 otherwise.
"""
import pathlib
import re
import sys

ROOTS = ["lib", "bin", "bench", "test", "perfbench", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
SUBMODULE = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
OPENS = re.compile(r"\b(?:end|sig|struct|object|begin)\b")
PATH = r"(?:[A-Z][A-Za-z0-9_']*\s*\.\s*)*"
CHAR = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}))'")


def strip_comments(text):
    """The text with comments blanked out; strings and chars kept."""
    out, i, depth, n = [], 0, 0, len(text)
    while i < n:
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif depth:
            out.append("\n" if text[i] == "\n" else " ")
            i += 1
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif (m := CHAR.match(text, i)):
            out.append(m.group())
            i = m.end()
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def submodule_spans(text):
    """(name, start, end) of each `module X : sig ... end` in [text]."""
    spans = []
    for m in SUBMODULE.finditer(text):
        depth = 1
        for t in OPENS.finditer(text, m.end()):
            depth += -1 if t.group() == "end" else 1
            if depth == 0:
                spans.append((m.group(1), m.end(), t.start()))
                break
    return spans


def qualified_use(text, mod, name):
    """[name] used through [mod] in [text]: qualified, opened or aliased."""
    names = {mod} | set(re.findall(
        r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*" + PATH + re.escape(mod) + r"\b",
        text))
    for q in names:
        if re.search(r"\b" + re.escape(q) + r"\s*\.\s*" + re.escape(name) + r"\b", text):
            return True
        opened = re.search(
            r"\b(?:open!?|include)\s+" + PATH + re.escape(q) + r"\b|\b"
            + re.escape(q) + r"\s*\.\s*\(", text)
        if opened and re.search(r"\b" + re.escape(name) + r"\b", text):
            return True
    return False


def main():
    files = [p for r in ROOTS for p in sorted(pathlib.Path(r).rglob("*"))
             if p.suffix in (".ml", ".mli") and "_build" not in p.parts]
    texts = {p: p.read_text() for p in files}
    code = {p: strip_comments(t) for p, t in texts.items()}
    words = {p: set(WORD.findall(t)) for p, t in texts.items()}
    unused = []
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        text = code[mli]
        spans = submodule_spans(text)
        for m in VAL.finditer(text):
            name = m.group(1)
            mod = next((s for s, a, b in spans if a <= m.start() < b), None)
            if mod is None:
                used = any(name in ws for p, ws in words.items() if p not in own)
            else:
                used = any(qualified_use(t, mod, name)
                           for p, t in code.items() if p not in own)
            if not used:
                line = text.count("\n", 0, m.start()) + 1
                what = name if mod is None else f"{mod}.{name}"
                unused.append(f"{mli}:{line}: val {what} has no caller "
                              "outside its module")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} unused export(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
