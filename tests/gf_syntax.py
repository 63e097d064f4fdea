"""Syntax-level validator for rendered GF sources (test-side only).

Checks the module skeleton, section order, declaration shapes, balanced
parentheses and token well-formedness; it does not type-check against the
resource library.
"""

import re

IDENT = r"[A-Za-z][A-Za-z0-9_']*"
QIDENT = r"%s(?:\.%s)?" % (IDENT, IDENT)
STRING = r'"(?:[^"\\]|\\.)*"'  # a backslash escapes the next character
TOKEN = re.compile(r"\(|\)|%s|%s" % (STRING, QIDENT))

CAT_DECL = re.compile(r"^    %s ;$" % IDENT)
FUN_DECL = re.compile(r"^    %s : %s(?: -> %s)* ;$" % (IDENT, IDENT, IDENT))
LINCAT_DECL = re.compile(r"^    %s = %s ;$" % (IDENT, IDENT))
DEF_DECL = re.compile(r"^    (%s)((?: %s)*) = (.+) ;$" % (IDENT, IDENT))


def _check_expr(text):
    depth = 0
    pos = 0
    for m in TOKEN.finditer(text):
        assert text[pos : m.start()].strip() == "", "junk in expression: %r" % text
        pos = m.end()
        tok = m.group(0)
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            assert depth >= 0, "unbalanced parens: %r" % text
    assert text[pos:].strip() == "", "junk at end of expression: %r" % text
    assert depth == 0, "unbalanced parens: %r" % text


def _split_sections(body, keywords):
    sections = {}
    current = None
    for line in body:
        stripped = line.strip()
        if line.startswith("  ") and not line.startswith("   ") and stripped in keywords:
            assert stripped not in sections, "duplicate section %s" % stripped
            current = stripped
            sections[current] = []
        else:
            assert current is not None, "declaration before any section: %r" % line
            sections[current].append(line)
    order = [k for k in keywords if k in sections]
    assert list(sections) == order, "sections out of order"
    return sections


def validate_abstract(text):
    lines = text.rstrip("\n").splitlines()
    assert re.fullmatch(r"abstract %s = \{" % IDENT, lines[0]), lines[0]
    assert lines[-1] == "}"
    assert re.fullmatch(r"  flags startcat = %s ;" % IDENT, lines[1]), lines[1]
    sections = _split_sections(lines[2:-1], ("cat", "fun"))
    assert "cat" in sections
    for line in sections["cat"]:
        assert CAT_DECL.match(line), line
    for line in sections.get("fun", ()):
        assert FUN_DECL.match(line), line


def validate_concrete(text):
    lines = text.rstrip("\n").splitlines()
    header = (
        r"concrete %s of %s = open SyntaxEng, ParadigmsEng, ConstructorsEng in \{"
        % (IDENT, IDENT)
    )
    assert re.fullmatch(header, lines[0]), lines[0]
    assert lines[-1] == "}"
    sections = _split_sections(lines[1:-1], ("lincat", "lin", "oper"))
    assert "lincat" in sections
    for line in sections["lincat"]:
        assert LINCAT_DECL.match(line), line
    for section in ("lin", "oper"):
        for line in sections.get(section, ()):
            m = DEF_DECL.match(line)
            assert m, line
            _check_expr(m.group(3))
