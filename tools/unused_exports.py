#!/usr/bin/env python3
"""Fail when an exported value has no caller outside its own module.

Every `val` declared in lib/*/*.mli must be used by some .ml or .mli
file outside its own module (the module's .ml and .mli) under lib, bin,
bench, test, perfbench or examples. A value used only inside its module
belongs out of the interface; a value used nowhere belongs out of the
code.

A `val` of module M (the file m.mli, or `module M : sig ... end`
inside it) needs a qualified use, `M.name`, or its bare name in a file
that opens or includes M (`open M`, `let open M in`, `M.( ... )`,
`M.[ ... ]`, or a local alias `module A = ... M` used as `A.name`).
Comments do not count.

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
DOTTED = re.compile(r"\b[A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Za-z_][A-Za-z0-9_']*)+")
OPEN = re.compile(r"\b(?:open!?|include)\s+([A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*)")
LOCAL_OPEN = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\s*\.\s*[([{]")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*([A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*)")
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


def uses(text):
    """What [text] can reach a module's values by: the `X.name` pairs
    it names, the module names it opens (or includes, or opens
    locally), its aliases `module A = ... X` and its bare words."""
    pairs = set()
    for chain in DOTTED.findall(text):
        parts = re.split(r"\s*\.\s*", chain)
        pairs.update(zip(parts, parts[1:]))
    opened = {c for p in OPEN.findall(text) for c in re.split(r"\s*\.\s*", p)}
    opened.update(LOCAL_OPEN.findall(text))
    aliases = {}
    for alias, path in ALIAS.findall(text):
        for c in re.split(r"\s*\.\s*", path):
            aliases.setdefault(c, set()).add(alias)
    return pairs, opened, aliases, set(WORD.findall(text))


def qualified_use(use, mod, name):
    """[name] used through [mod]: qualified, opened or aliased."""
    pairs, opened, aliases, words = use
    for q in {mod} | aliases.get(mod, set()):
        if (q, name) in pairs or (q in opened and name in words):
            return True
    return False


def main():
    files = [p for r in ROOTS for p in sorted(pathlib.Path(r).rglob("*"))
             if p.suffix in (".ml", ".mli") and "_build" not in p.parts]
    code = {p: strip_comments(p.read_text()) for p in files}
    use = {p: uses(t) for p, t in code.items()}
    unused = []
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        text = code[mli]
        spans = submodule_spans(text)
        for m in VAL.finditer(text):
            name = m.group(1)
            mod = next((s for s, a, b in spans if a <= m.start() < b),
                       mli.stem.capitalize())
            if not any(qualified_use(u, mod, name)
                       for p, u in use.items() if p not in own):
                line = text.count("\n", 0, m.start()) + 1
                unused.append(f"{mli}:{line}: val {mod}.{name} has no caller "
                              "outside its module")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} unused export(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
