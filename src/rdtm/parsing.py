r"""Tokenizer and recursive-descent expression parser.

The grammar is the one the pretty-printer emits, so parse -> print -> parse
is a fixed point:

    expression := term (('+'|'-') term)*
    term       := unary (('*'|'/') unary)*          # '/' by rational constants
    unary      := ('-'|'+')* power
    power      := primary ('^' exponent)?
    exponent   := ['-'] INT | '(' ['-'] INT ')'
    primary    := NUMBER | '(' expression ')' | ident-form
    ident-form := declared variable | 't' | 'u'
                | ('exp'|'sin'|'cos') '(' expression ')'
                | 'D' '(' expression (',' IDENT ',' INT)+ ')'

The lexicon is ASCII; any other character is a ParseError:

    NUMBER     := [0-9]+ ('.' [0-9]*)? | '.' [0-9]+   # within the int/str digit limit
    IDENT      := [A-Za-z_] [A-Za-z0-9_]*
    STRING     := '"' [^"\n]* '"'
    punct      := one of + - * / ^ ( ) , { } : ; =

Whitespace is insignificant and '#' starts a comment running to end of line.
Numbers are exact: integers, fractions via '/', and decimal literals such as
0.3 (read as 3/10, never as a binary float).  D(...) differentiates its first
argument immediately, so compact operator forms expand mechanically at parse
time; D applied to u or its derivatives just raises the derivative order.

An operator chain becomes one n-ary Sum or Product node and a run of signs
is folded in a loop, so long flat input needs no recursion.  Nesting, by
parentheses or by the arguments of exp/sin/cos/D, is bounded by
MAX_NESTING; deeper input is a ParseError rather than a RecursionError.
The order one D(...) asks for along a variable is bounded by
MAX_DERIVATIVE_ORDER, so the differentiation work it implies is bounded too.

Command-line values (--grid, --slice, --sweep) are read over the same
lexicon by parse_assignments:

    assignments := names '=' numbers (';' names '=' numbers)*
    names       := IDENT (',' IDENT)*
    numbers     := number (':' number)*      # as many as the option takes
    number      := ['-'] NUMBER ['/' NUMBER]
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from . import expr as ex
from .errors import ParseError, UndeclaredIdentifierError
from .record import Record

__all__ = ["Token", "tokenize", "parse_expr", "parse_assignments", "RESERVED_NAMES", "TIME_VAR"]

TIME_VAR = "t"
RESERVED_NAMES = frozenset({"t", "u", "D", "exp", "sin", "cos"})
# Deepest accepted nesting of parentheses and function arguments; input at
# this depth still parses, canonicalizes and solves under Python's default
# recursion limit of 1000 frames.
MAX_NESTING = 100
# Highest derivative order one D(...) may ask for along one variable (its
# pairs for that variable summed).  Each order is one differentiation pass at
# parse time and per spectrum on the solve path, so an unbounded order is
# unbounded work.  The built-in models reach order 5 at most (D(u,x,5) in
# ex2's expanded right-hand side); 20 leaves room for higher-order operators.
MAX_DERIVATIVE_ORDER = 20
# Most points one error table (rows x columns) or one figure sweep (the
# product of its ranges) may have.  Every cell costs a high-precision
# evaluation, so the size is counted from each range's start, stop and step
# and checked before any range is enumerated.  The largest built-in or
# benchmark grid has 41 x 41 = 1681 points; 10^5 leaves a wide margin.
MAX_GRID_POINTS = 100_000
# Highest truncation order (number of spectra) a solve may ask for.  A solve
# costs O(order^2) Cauchy products of spectra that grow with the order, so
# the bound is checked before anything is compiled.  The paper's deepest
# reference table uses order 20 and the deepest benchmark solve order 30.
MAX_ORDER = 100

# The lexicon of the module docstring; 'bad' takes any character it leaves.
_LEXICON = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r'|"(?P<STRING>[^"\n]*)"'
    r"|(?P<punct>[-+*/^(),{}:;=])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind: IDENT, NUMBER, STRING, one of the punctuation chars, EOF
        self._assign(kind=kind, text=text, line=line, col=col)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _LEXICON.finditer(text):
        kind, col = match.lastgroup, match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            char = match.group()
            message = "unterminated string" if char == '"' else f"unexpected character {char!r}"
            raise ParseError(message, line, col)
        elif kind != "skip":
            lexeme = match.group(kind)
            tokens.append(Token(lexeme if kind == "punct" else kind, lexeme, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind) -> Token | None:
        if self.cur.kind == kind:
            return self.advance()
        return None

    def expect(self, kind, what=None) -> Token:
        if self.cur.kind != kind:
            found = self.cur.text or "end of input"
            raise ParseError(
                f"expected {what or kind}, found {found!r}", self.cur.line, self.cur.col
            )
        return self.advance()

    def expect_end(self):
        if self.cur.kind != "EOF":
            raise self.error(f"unexpected trailing {self.cur.text!r}")

    def error(self, message) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)


def _number(tok: Token) -> Fraction:
    """The exact value of a NUMBER token; the lexicon leaves int only the
    interpreter's digit limit as a reason to refuse one."""
    whole, _, decimals = tok.text.partition(".")
    try:
        return Fraction(int(whole + decimals), 10 ** len(decimals))
    except ValueError:
        raise ParseError(
            f"number has more than {sys.get_int_max_str_digits()} digits", tok.line, tok.col
        ) from None


class ExprParser:
    """Parses expressions over a fixed set of declared spatial variables."""

    def __init__(self, stream: TokenStream, declared_vars):
        self.stream = stream
        self.depth = 0
        self.declared = tuple(declared_vars)
        for name in self.declared:
            if name in RESERVED_NAMES:
                raise ValueError(f"variable name {name!r} is reserved")

    def parse_expression(self) -> ex.Expr:
        terms = [self.parse_term()]
        while self.stream.cur.kind in "+-":
            op = self.stream.advance()
            rhs = self.parse_term()
            if op.kind == "-":
                rhs = ex.Product((ex.rational(-1), rhs))
            terms.append(rhs)
        return terms[0] if len(terms) == 1 else ex.Sum(tuple(terms))

    def parse_nested(self, open_tok: Token) -> ex.Expr:
        """An expression one nesting level below open_tok, the token that
        opens it: '(' or the name of exp/sin/cos/D."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", open_tok.line, open_tok.col
            )
        self.depth += 1
        node = self.parse_expression()
        self.depth -= 1
        return node

    def parse_term(self) -> ex.Expr:
        factors = [self.parse_unary()]
        while self.stream.cur.kind in "*/":
            op = self.stream.advance()
            rhs = self.parse_unary()
            if op.kind == "/":
                divisor = ex.simplify(rhs)
                if not isinstance(divisor, ex.Rational):
                    raise ParseError(
                        "divisor must be a rational constant", op.line, op.col
                    )
                if divisor.value == 0:
                    raise ParseError("division by zero", op.line, op.col)
                rhs = ex.Rational(1 / divisor.value)
            factors.append(rhs)
        return factors[0] if len(factors) == 1 else ex.Product(tuple(factors))

    def parse_unary(self) -> ex.Expr:
        negative = False
        while self.stream.cur.kind in "+-":
            negative ^= self.stream.advance().kind == "-"
        node = self.parse_power()
        return ex.Product((ex.rational(-1), node)) if negative else node

    def parse_power(self) -> ex.Expr:
        base = self.parse_primary()
        if self.stream.accept("^"):
            exponent = self.parse_exponent()
            return ex.Power(base, exponent)
        return base

    def parse_exponent(self) -> int:
        parenthesized = self.stream.accept("(")
        sign = -1 if self.stream.accept("-") else 1
        value = sign * self.parse_integer("integer exponent")
        if parenthesized:
            self.stream.expect(")")
        return value

    def parse_integer(self, what) -> int:
        tok = self.stream.cur
        if tok.kind != "NUMBER" or "." in tok.text:
            raise self.stream.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        self.stream.advance()
        return _number(tok).numerator

    def parse_primary(self) -> ex.Expr:
        tok = self.stream.cur
        if tok.kind == "NUMBER":
            self.stream.advance()
            return ex.Rational(_number(tok))
        if tok.kind == "(":
            self.stream.advance()
            node = self.parse_nested(tok)
            self.stream.expect(")")
            return node
        if tok.kind == "IDENT":
            self.stream.advance()
            name = tok.text
            if name in ("exp", "sin", "cos"):
                self.stream.expect("(", f"'(' after {name}")
                arg = self.parse_nested(tok)
                self.stream.expect(")")
                return ex.Atom(name, arg)
            if name == "D":
                return self.parse_derivative(tok)
            if name == "u":
                return ex.DerivSym(())
            if name == TIME_VAR or name in self.declared:
                return ex.Var(name)
            raise UndeclaredIdentifierError(
                f"undeclared identifier {name!r}", tok.line, tok.col
            )
        raise self.stream.error(f"unexpected {tok.text or 'end of input'!r}")

    def parse_derivative(self, d_tok: Token) -> ex.Expr:
        self.stream.expect("(", "'(' after D")
        inner = self.parse_nested(d_tok)
        pairs = []
        totals = {}
        while self.stream.accept(","):
            var_tok = self.stream.expect("IDENT", "variable name in D(...)")
            name = var_tok.text
            if name != TIME_VAR and name not in self.declared:
                raise UndeclaredIdentifierError(
                    f"undeclared identifier {name!r}", var_tok.line, var_tok.col
                )
            self.stream.expect(",")
            order_tok = self.stream.cur
            order = self.parse_integer("derivative order")
            totals[name] = totals.get(name, 0) + order
            if totals[name] > MAX_DERIVATIVE_ORDER:
                raise ParseError(
                    f"derivative order {totals[name]} along {name!r} exceeds {MAX_DERIVATIVE_ORDER}",
                    order_tok.line,
                    order_tok.col,
                )
            pairs.append((name, order))
        self.stream.expect(")")
        if not pairs:
            raise ParseError("D(...) needs at least one variable/order pair", d_tok.line, d_tok.col)
        result = ex.simplify(inner)
        for name, order in pairs:
            result = ex.differentiate(result, name, order)
        return result


def parse_expr(text: str, declared_vars) -> ex.Expr:
    """Parse and canonicalize an expression over the declared variables."""
    stream = TokenStream(tokenize(text))
    parser = ExprParser(stream, declared_vars)
    node = parser.parse_expression()
    stream.expect_end()
    return ex.simplify(node)


def parse_names(stream: TokenStream) -> list[Token]:
    """names := IDENT (',' IDENT)*"""
    names = [stream.expect("IDENT", "a variable name")]
    while stream.accept(","):
        names.append(stream.expect("IDENT", "a variable name"))
    return names


def _rational(stream: TokenStream) -> Fraction:
    """number := ['-'] NUMBER ['/' NUMBER]"""
    sign = -1 if stream.accept("-") else 1
    value = _number(stream.expect("NUMBER", "a number"))
    slash = stream.accept("/")
    if slash:
        divisor = _number(stream.expect("NUMBER", "a number"))
        if not divisor:
            raise ParseError("division by zero", slash.line, slash.col)
        value /= divisor
    return sign * value


def parse_assignments(text: str, option: str, arity: int) -> list:
    """[(names, value, ...)] of a command-line option's value, each
    assignment with ``arity`` exact rationals (3 for start:stop:step); the
    grammar is in the module docstring.  A ParseError names the option."""
    try:
        stream = TokenStream(tokenize(text))
        assignments = []
        while not assignments or stream.accept(";"):
            names = tuple(tok.text for tok in parse_names(stream))
            stream.expect("=", "'='")
            values = [_rational(stream)]
            while len(values) < arity:
                stream.expect(":", "':'")
                values.append(_rational(stream))
            assignments.append((names, *values))
        stream.expect_end()
    except ParseError as err:
        raise ParseError(f"{option}: {err}") from None
    return assignments
