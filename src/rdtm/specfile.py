"""Problem-file DSL: parse and serialize PDE definitions.

    pde "ex3" {
      vars: x;
      equation: D(u,t,2) = x^2*(D(u,x,2)^2 + D(u,x,1)*D(u,x,3)) - x^2*D(u,x,2)^2 - u;
      init: 0;  init_t: x^2;  exact: x^2*sin(t);
    }

Whitespace-insensitive, '#' comments.  Fields may appear in any order;
`vars`, `equation`, `init` and `init_t` are required, `exact` is optional.
The left side of the equation must be exactly D(u,t,2): this solver class is
second order in time.
"""

from __future__ import annotations

from . import expr as ex
from .engine import PdeSpec
from .errors import ParseError, UnsupportedStructureError
from .parsing import RESERVED_NAMES, ExprParser, Token, TokenStream, parse_names, tokenize

__all__ = ["parse_spec_file", "serialize_spec", "FIELD_NAMES"]

FIELD_NAMES = ("vars", "equation", "init", "init_t", "exact")

_U_TT = ex.DerivSym((("t", 2),))


def parse_spec_file(text: str) -> PdeSpec:
    """Parse DSL text into a validated problem definition."""
    stream = TokenStream(tokenize(text))
    head = stream.expect("IDENT", "'pde'")
    if head.text != "pde":
        raise ParseError(f"expected 'pde', found {head.text!r}", head.line, head.col)
    name = stream.expect("STRING", "a quoted problem name")
    stream.expect("{")

    fields = {}
    while not stream.accept("}"):
        if stream.cur.kind == "EOF":
            raise stream.error("missing closing '}'")
        field = stream.expect("IDENT", "a field name")
        if field.text not in FIELD_NAMES:
            raise ParseError(
                f"unknown field {field.text!r} (expected one of {', '.join(FIELD_NAMES)})",
                field.line,
                field.col,
            )
        if field.text in fields:
            raise ParseError(f"duplicate field {field.text!r}", field.line, field.col)
        stream.expect(":")
        body = []
        while stream.cur.kind not in (";", "}", "EOF"):
            body.append(stream.advance())
        if stream.cur.kind != ";":
            raise stream.error(f"missing ';' after {field.text!r}")
        end = stream.advance()
        fields[field.text] = TokenStream(body + [Token("EOF", "", end.line, end.col)])
    if stream.cur.kind != "EOF":
        raise stream.error("unexpected text after '}'")

    for required in ("vars", "equation", "init"):
        if required not in fields:
            raise ParseError(
                f"missing required field {required!r}", head.line, head.col
            )
    if "init_t" not in fields:
        raise ParseError(
            "second initial condition required: add an 'init_t:' field",
            head.line,
            head.col,
        )

    vars_stream = fields["vars"]
    name_tokens = parse_names(vars_stream)
    vars_stream.expect_end()
    for tok in name_tokens:
        if tok.text in RESERVED_NAMES:
            raise ParseError(f"variable name {tok.text!r} is reserved", tok.line, tok.col)
    names = [tok.text for tok in name_tokens]

    eq_stream = fields["equation"]
    parser = ExprParser(eq_stream, names)
    lhs = ex.simplify(parser.parse_expression())
    if eq_stream.cur.kind != "=":
        raise eq_stream.error("expected '=' in the equation")
    eq_stream.advance()
    rhs = parser.parse_expression()
    eq_stream.expect_end()
    if lhs != _U_TT:
        raise UnsupportedStructureError(
            "the equation's left side must be D(u,t,2); only second-order-in-time "
            f"problems are supported, found {ex.to_text(lhs)}"
        )

    def field_expr(key):
        node = ExprParser(fields[key], names).parse_expression()
        fields[key].expect_end()
        return node

    return PdeSpec(
        name=name.text,
        spatial_vars=tuple(names),
        rhs=rhs,
        init_u=field_expr("init"),
        init_ut=field_expr("init_t"),
        exact=field_expr("exact") if "exact" in fields else None,
    )


def serialize_spec(spec: PdeSpec) -> str:
    """DSL text for a problem; parsing it back yields a definition whose
    series solution is structurally identical."""
    lines = [
        f'pde "{spec.name}" {{',
        f"  vars: {', '.join(spec.spatial_vars)};",
        f"  equation: D(u,t,2) = {ex.to_text(spec.rhs)};",
        f"  init: {ex.to_text(spec.init_u)};",
        f"  init_t: {ex.to_text(spec.init_ut)};",
    ]
    if spec.exact is not None:
        lines.append(f"  exact: {ex.to_text(spec.exact)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
