"""Recursive-descent parser for the C++ subset.

Statements beginning with an identifier are ambiguous (``T * x;`` is a
declaration when ``T`` names a type, an expression otherwise). The parser
resolves this with a private stack of type-name frames, one per namespace,
class and function body, filled with every class, enum and typedef it
passes. The unit's symbol table is built afterwards from the finished AST.
"""

from __future__ import annotations

from ..errors import ParseError
from ..model import MAX_NESTING, AstNode, SourceSpan
from . import lexer
from .lexer import IDENT, KEYWORD, PUNCT

LANGUAGE = "minicpp"

NODE_KINDS = (
    "TranslationUnit", "NamespaceDef", "UsingDirective", "ClassDef", "BaseSpec",
    "AccessSection", "EnumDef", "Enumerator", "TypedefDecl", "FunctionDef",
    "Constructor", "Destructor", "ParamDecl", "VarDecl", "CompoundStmt",
    "IfStmt", "SwitchStmt", "CaseClause", "DefaultClause", "ForStmt",
    "WhileStmt", "DoStmt", "ReturnStmt", "BreakStmt", "ContinueStmt",
    "GotoStmt", "LabelStmt", "ExprStmt", "AssignExpr", "BinaryExpr",
    "UnaryExpr", "CallExpr", "MemberExpr", "NewExpr", "DeleteExpr",
    "ParenExpr", "IdentExpr", "Literal",
)

_TYPE_KEYWORDS = frozenset(
    "void bool char int short long float double unsigned signed".split()
)
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
_UNARY_OPS = ("!", "-", "+", "*", "&", "~", "++", "--")
# Binary operator -> precedence (higher binds tighter); all left-associative.
_BINARY_PRECEDENCE = {
    "||": 0, "&&": 1, "|": 2, "^": 3, "&": 4,
    "==": 5, "!=": 5, "<": 6, ">": 6, "<=": 6, ">=": 6,
    "<<": 7, ">>": 7, "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}


def parse(tokens, file="<input>"):
    """Parse a token stream into a TranslationUnit node."""
    return _Parser(tokens, file).parse_unit()


class _Frame:
    """Type names (class, enum, typedef) declared directly in one namespace,
    class or function body, plus its named namespace and class frames."""

    __slots__ = ("types", "children")

    def __init__(self):
        self.types = set()
        self.children = {}


class _Parser:
    def __init__(self, tokens, file):
        self.tokens = tokens
        self.file = file
        self.frames = [_Frame()]
        self.depth = 0
        self._next_id = 0
        self.pos = 0

    # --- token helpers -------------------------------------------------

    def peek(self, offset=0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at_end(self):
        return self.pos >= len(self.tokens)

    def at_punct(self, text, offset=0):
        tok = self.peek(offset)
        return tok is not None and tok.is_punct(text)

    def at_keyword(self, text, offset=0):
        tok = self.peek(offset)
        return tok is not None and tok.is_keyword(text)

    def at_kind(self, kind, offset=0):
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept_punct(self, text):
        if self.at_punct(text):
            return self.advance()
        return None

    def accept_keyword(self, text):
        if self.at_keyword(text):
            return self.advance()
        return None

    def expect(self, text, kind=PUNCT):
        tok = self.peek()
        if tok is None:
            raise ParseError(self._eof_span(), "expected %r, found end of input" % text)
        if kind == PUNCT and tok.is_punct(text):
            return self.advance()
        if kind == KEYWORD and tok.is_keyword(text):
            return self.advance()
        raise ParseError(tok.span, "expected %r, found %r" % (text, tok.text))

    def expect_ident(self):
        tok = self.peek()
        if tok is None or tok.kind != IDENT:
            span = tok.span if tok else self._eof_span()
            found = tok.text if tok else "end of input"
            raise ParseError(span, "expected identifier, found %r" % found)
        return self.advance()

    def _eof_span(self):
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan.point(self.file, last.end_row, last.end_col)
        return SourceSpan.point(self.file, 1, 1)

    def error(self, message):
        tok = self.peek()
        raise ParseError(tok.span if tok else self._eof_span(), message)

    def enter(self):
        """Count one level of grammar nesting; the caller decrements
        ``depth`` when it returns."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING)

    # --- node construction ---------------------------------------------

    def node(self, kind, start, attrs=None, children=None):
        first = self.tokens[start].span
        last = self.tokens[self.pos - 1].span if self.pos > start else first
        span = SourceSpan(self.file, first.row, first.col, last.end_row, last.end_col)
        self._next_id += 1
        return AstNode(
            language=LANGUAGE,
            kind=kind,
            span=span,
            attributes=attrs or {},
            children=children or [],
            node_id=self._next_id,
        )

    # --- type names ---------------------------------------------------

    def declare_type(self, name):
        self.frames[-1].types.add(name)

    def at_declaration(self):
        """True iff a declaration starts at the current token: a built-in
        type keyword, ``const``/``static``, or a possibly qualified
        identifier naming a class, enum or typedef visible here."""
        tok = self.peek()
        if tok is None:
            return False
        if tok.kind == KEYWORD:
            return tok.text in _TYPE_KEYWORDS or tok.text in ("const", "static")
        if tok.kind != IDENT:
            return False
        path = [tok.text]
        i = 1
        while self.at_punct("::", i) and self.at_kind(IDENT, i + 1):
            path.append(self.peek(i + 1).text)
            i += 2
        name = path.pop()
        if not path:
            return any(name in frame.types for frame in self.frames)
        # ``A::B::T``: from the innermost frame with an ``A`` child, descend
        for frame in reversed(self.frames):
            if path[0] in frame.children:
                break
        else:
            return False
        for part in path:
            frame = frame.children.get(part)
            if frame is None:
                return False
        return name in frame.types

    # --- top level ------------------------------------------------------

    def parse_unit(self):
        self.pos = 0
        children = []
        while not self.at_end():
            children.append(self.parse_top_decl())
        self._next_id += 1
        if self.tokens:
            first = self.tokens[0].span
            last = self.tokens[-1].span
            span = SourceSpan(
                self.file, first.row, first.col, last.end_row, last.end_col
            )
        else:
            span = SourceSpan.point(self.file, 1, 1)
        return AstNode(
            language=LANGUAGE,
            kind="TranslationUnit",
            span=span,
            children=children,
            node_id=self._next_id,
        )

    def parse_top_decl(self):
        self.enter()
        if self.at_keyword("namespace"):
            decl = self.parse_namespace()
        elif self.at_keyword("using"):
            decl = self.parse_using()
        elif self.at_keyword("class"):
            decl = self.parse_class()
        elif self.at_keyword("enum"):
            decl = self.parse_enum()
        elif self.at_keyword("typedef"):
            decl = self.parse_typedef()
        else:
            decl = self.parse_function_or_variable()
        self.depth -= 1
        return decl

    def parse_namespace(self):
        start = self.pos
        self.expect("namespace", KEYWORD)
        name = self.expect_ident().text
        self.expect("{")
        # a reopened namespace continues the frame of its first block
        self.frames.append(self.frames[-1].children.setdefault(name, _Frame()))
        children = []
        while not self.at_punct("}"):
            if self.at_end():
                self.error("unterminated namespace %r" % name)
            children.append(self.parse_top_decl())
        self.frames.pop()
        self.expect("}")
        return self.node("NamespaceDef", start, {"name": name}, children)

    def parse_using(self):
        start = self.pos
        self.expect("using", KEYWORD)
        self.expect("namespace", KEYWORD)
        parts = [self.expect_ident().text]
        while self.accept_punct("::"):
            parts.append(self.expect_ident().text)
        self.expect(";")
        return self.node("UsingDirective", start, {"name": "::".join(parts)})

    # --- types ----------------------------------------------------------

    def parse_base_type(self):
        """Parse a type up to, but excluding, declarator stars."""
        parts = []
        while self.at_keyword("const"):
            self.advance()
            parts.append("const")
        tok = self.peek()
        if tok is None:
            self.error("expected type")
        if tok.kind == KEYWORD and tok.text in _TYPE_KEYWORDS:
            while self.at_kind(KEYWORD) and self.peek().text in _TYPE_KEYWORDS:
                parts.append(self.advance().text)
        elif tok.kind == IDENT:
            name = [self.advance().text]
            while self.at_punct("::") and self.at_kind(IDENT, 1):
                self.advance()
                name.append(self.advance().text)
            parts.append("::".join(name))
        else:
            self.error("expected type, found %r" % tok.text)
        while self.at_keyword("const"):
            self.advance()
            parts.append("const")
        return " ".join(parts)

    def parse_pointer_suffix(self):
        suffix = ""
        while self.at_punct("*") or self.at_punct("&"):
            suffix += self.advance().text
        return suffix

    # --- classes --------------------------------------------------------

    def parse_class(self):
        start = self.pos
        self.expect("class", KEYWORD)
        name = self.expect_ident().text
        self.declare_type(name)
        children = []
        if self.accept_punct(":"):
            while True:
                base_start = self.pos
                access = "private"
                tok = self.peek()
                if tok is not None and tok.kind == KEYWORD and tok.text in (
                    "public",
                    "protected",
                    "private",
                ):
                    access = self.advance().text
                parts = [self.expect_ident().text]
                while self.at_punct("::") and self.at_kind(IDENT, 1):
                    self.advance()
                    parts.append(self.advance().text)
                children.append(
                    self.node(
                        "BaseSpec",
                        base_start,
                        {"access": access, "name": "::".join(parts)},
                    )
                )
                if not self.accept_punct(","):
                    break
        if self.accept_punct(";"):
            return self.node("ClassDef", start, {"name": name, "forward": "true"})
        self.expect("{")
        # unlike a namespace, a class body never continues an earlier one
        frame = _Frame()
        self.frames[-1].children.setdefault(name, frame)
        self.frames.append(frame)
        while not self.at_punct("}"):
            if self.at_end():
                self.error("unterminated class %r" % name)
            children.extend(self.parse_member(name))
        self.frames.pop()
        self.expect("}")
        self.expect(";")
        return self.node("ClassDef", start, {"name": name}, children)

    def parse_member(self, class_name):
        self.enter()
        start = self.pos
        tok = self.peek()
        if tok.kind == KEYWORD and tok.text in ("public", "protected", "private"):
            self.advance()
            self.expect(":")
            members = [self.node("AccessSection", start, {"access": tok.text})]
        elif tok.is_keyword("enum"):
            members = [self.parse_enum()]
        elif tok.is_keyword("typedef"):
            members = [self.parse_typedef()]
        elif tok.is_keyword("class"):
            members = [self.parse_class()]
        else:
            virtual = bool(self.accept_keyword("virtual"))
            static = bool(self.accept_keyword("static"))
            if self.at_punct("~"):
                members = [self.parse_destructor(start, virtual)]
            elif (
                not virtual
                and not static
                and self.at_kind(IDENT)
                and self.peek().text == class_name
                and self.at_punct("(", 1)
            ):
                members = [self.parse_constructor(start)]
            else:
                base_type = self.parse_base_type()
                stars = self.parse_pointer_suffix()
                name = self.expect_ident().text
                if self.at_punct("("):
                    members = [
                        self.parse_function_rest(
                            start, base_type + stars, name, virtual=virtual, static=static
                        )
                    ]
                else:
                    members = self.parse_declarators(start, base_type, stars, name)
        self.depth -= 1
        return members

    def parse_destructor(self, start, virtual):
        self.expect("~")
        name = self.expect_ident().text
        self.expect("(")
        self.expect(")")
        pure = self._accept_pure()
        attrs = {
            "name": name,
            "virtual": "true" if virtual else "false",
            "pure": "true" if pure else "false",
        }
        children = []
        if self.at_punct("{"):
            children.append(self.parse_compound())
        else:
            self.expect(";")
        return self.node("Destructor", start, attrs, children)

    def parse_constructor(self, start):
        name = self.advance().text
        params = self.parse_params()
        if self.accept_punct(":"):  # ctor-initializer list, parsed and dropped
            while True:
                self.expect_ident()
                self.expect("(")
                if not self.at_punct(")"):
                    self.parse_assign()
                    while self.accept_punct(","):
                        self.parse_assign()
                self.expect(")")
                if not self.accept_punct(","):
                    break
        children = list(params)
        if self.at_punct("{"):
            children.append(self.parse_compound())
        else:
            self.expect(";")
        return self.node("Constructor", start, {"name": name}, children)

    def _accept_pure(self):
        if self.at_punct("=") and self.at_kind(lexer.INT_LIT, 1):
            if self.peek(1).text == "0":
                self.advance()
                self.advance()
                return True
        return False

    def parse_params(self):
        self.expect("(")
        params = []
        if self.at_keyword("void") and self.at_punct(")", 1):
            self.advance()  # f(void)
        while not self.at_punct(")"):
            start = self.pos
            base = self.parse_base_type()
            stars = self.parse_pointer_suffix()
            name = ""
            if self.at_kind(IDENT):
                name = self.advance().text
            if self.accept_punct("="):  # default argument, dropped
                self.parse_assign()
            params.append(
                self.node("ParamDecl", start, {"name": name, "type": base + stars})
            )
            if not self.accept_punct(","):
                break
        self.expect(")")
        return params

    def parse_function_rest(self, start, return_type, name, virtual=False, static=False):
        params = self.parse_params()
        const_method = bool(self.accept_keyword("const"))
        pure = self._accept_pure()
        attrs = {
            "name": name,
            "return_type": return_type,
            "virtual": "true" if virtual else "false",
            "static": "true" if static else "false",
            "const": "true" if const_method else "false",
            "pure": "true" if pure else "false",
        }
        children = list(params)
        if self.at_punct("{"):
            self.frames.append(_Frame())
            children.append(self.parse_compound())
            self.frames.pop()
        else:
            self.expect(";")
        return self.node("FunctionDef", start, attrs, children)

    # --- enums / typedefs ----------------------------------------------

    def parse_enum(self):
        start = self.pos
        self.expect("enum", KEYWORD)
        name = ""
        if self.at_kind(IDENT):
            name = self.advance().text
            self.declare_type(name)
        self.expect("{")
        enumerators = []
        while not self.at_punct("}"):
            e_start = self.pos
            e_name = self.expect_ident().text
            children = []
            has_init = False
            if self.accept_punct("="):
                has_init = True
                children.append(self.parse_assign())
            enumerators.append(
                self.node(
                    "Enumerator",
                    e_start,
                    {"name": e_name, "has_init": "true" if has_init else "false"},
                    children,
                )
            )
            if not self.accept_punct(","):
                break
        self.expect("}")
        self.accept_punct(";")
        return self.node("EnumDef", start, {"name": name}, enumerators)

    def parse_typedef(self):
        start = self.pos
        self.expect("typedef", KEYWORD)
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.expect_ident().text
        self.expect(";")
        self.declare_type(name)
        return self.node("TypedefDecl", start, {"name": name, "type": base + stars})

    # --- functions and variables ---------------------------------------

    def parse_function_or_variable(self):
        start = self.pos
        self.accept_keyword("static")
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.expect_ident().text
        if self.at_punct("("):
            return self.parse_function_rest(start, base + stars, name)
        decls = self.parse_declarators(start, base, stars, name)
        if len(decls) == 1:
            return decls[0]
        # multiple declarators at top level: wrap to keep one child per decl
        return self.node("ExprStmt", start, {}, decls)

    def parse_declarators(self, start, base_type, stars, first_name):
        """Parse the remainder of ``type name [...], name2, ...;``."""
        decls = []
        name = first_name
        decl_start = start
        while True:
            attrs = {"name": name, "type": base_type + stars}
            children = []
            if self.accept_punct("["):
                attrs["type"] += "[]"
                attrs["array"] = "true"
                if not self.at_punct("]"):
                    children.append(self.parse_assign())
                self.expect("]")
            if self.accept_punct("="):
                attrs["has_init"] = "true"
                children.append(self.parse_assign())
            else:
                attrs["has_init"] = "false"
            decls.append(self.node("VarDecl", decl_start, attrs, children))
            if not self.accept_punct(","):
                break
            decl_start = self.pos
            stars = self.parse_pointer_suffix()
            name = self.expect_ident().text
        self.expect(";")
        return decls

    # --- statements -----------------------------------------------------

    def parse_compound(self):
        start = self.pos
        self.expect("{")
        children = []
        while not self.at_punct("}"):
            if self.at_end():
                self.error("unterminated block")
            children.extend(self.parse_stmt())
        self.expect("}")
        return self.node("CompoundStmt", start, {}, children)

    def parse_stmt(self):
        """Parse one statement; declarations may expand to several nodes."""
        self.enter()
        tok = self.peek()
        if tok is None:
            self.error("expected statement")
        handler = None
        if tok.kind == KEYWORD:
            handler = {
                "if": self.parse_if,
                "switch": self.parse_switch,
                "for": self.parse_for,
                "while": self.parse_while,
                "do": self.parse_do,
                "return": self.parse_return,
                "break": lambda: self.parse_simple("BreakStmt", "break"),
                "continue": lambda: self.parse_simple("ContinueStmt", "continue"),
                "goto": self.parse_goto,
                "enum": self.parse_enum,
                "typedef": self.parse_typedef,
                "class": self.parse_class,
                "using": self.parse_using,
            }.get(tok.text)
        if tok.is_punct("{"):
            stmts = [self.parse_compound()]
        elif tok.is_punct(";"):
            start = self.pos
            self.advance()
            stmts = [self.node("ExprStmt", start)]
        elif handler is not None:
            stmts = [handler()]
        elif tok.kind == IDENT and self.at_punct(":", 1):
            start = self.pos
            name = self.advance().text
            self.advance()
            stmts = [self.node("LabelStmt", start, {"name": name})]
        elif self.at_declaration():
            stmts = self.parse_decl_stmt()
        else:
            stmts = [self.parse_expr_stmt()]
        self.depth -= 1
        return stmts

    def parse_decl_stmt(self):
        start = self.pos
        self.accept_keyword("static")
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.expect_ident().text
        return self.parse_declarators(start, base, stars, name)

    def parse_expr_stmt(self):
        start = self.pos
        expr = self.parse_assign()
        self.expect(";")
        return self.node("ExprStmt", start, {}, [expr])

    def parse_if(self):
        start = self.pos
        self.expect("if", KEYWORD)
        self.expect("(")
        cond = self.parse_assign()
        self.expect(")")
        then = self._single_stmt()
        children = [cond, then]
        attrs = {"has_else": "false"}
        if self.accept_keyword("else"):
            attrs["has_else"] = "true"
            children.append(self._single_stmt())
        return self.node("IfStmt", start, attrs, children)

    def _single_stmt(self):
        stmts = self.parse_stmt()
        if len(stmts) == 1:
            return stmts[0]
        # several declarators from one declaration; keep them grouped
        first, last = stmts[0].span, stmts[-1].span
        self._next_id += 1
        return AstNode(
            language=LANGUAGE,
            kind="CompoundStmt",
            span=SourceSpan(self.file, first.row, first.col, last.end_row, last.end_col),
            children=stmts,
            node_id=self._next_id,
        )

    def parse_switch(self):
        start = self.pos
        self.expect("switch", KEYWORD)
        self.expect("(")
        cond = self.parse_assign()
        self.expect(")")
        self.expect("{")
        children = [cond]
        while not self.at_punct("}"):
            c_start = self.pos
            if self.accept_keyword("case"):
                label = self.parse_assign()
                self.expect(":")
                body = self._clause_body()
                children.append(self.node("CaseClause", c_start, {}, [label] + body))
            elif self.accept_keyword("default"):
                self.expect(":")
                body = self._clause_body()
                children.append(self.node("DefaultClause", c_start, {}, body))
            else:
                self.error("expected 'case' or 'default'")
        self.expect("}")
        return self.node("SwitchStmt", start, {}, children)

    def _clause_body(self):
        body = []
        while not (
            self.at_punct("}") or self.at_keyword("case") or self.at_keyword("default")
        ):
            if self.at_end():
                self.error("unterminated switch body")
            body.extend(self.parse_stmt())
        return body

    def parse_for(self):
        start = self.pos
        self.expect("for", KEYWORD)
        self.expect("(")
        children = []
        attrs = {"has_init": "false", "has_cond": "false", "has_step": "false"}
        if not self.accept_punct(";"):
            attrs["has_init"] = "true"
            if self.at_declaration():
                children.extend(self.parse_decl_stmt())
            else:
                children.append(self.parse_assign())
                self.expect(";")
        if not self.at_punct(";"):
            attrs["has_cond"] = "true"
            children.append(self.parse_assign())
        self.expect(";")
        if not self.at_punct(")"):
            attrs["has_step"] = "true"
            children.append(self.parse_assign())
        self.expect(")")
        children.append(self._single_stmt())
        return self.node("ForStmt", start, attrs, children)

    def parse_while(self):
        start = self.pos
        self.expect("while", KEYWORD)
        self.expect("(")
        cond = self.parse_assign()
        self.expect(")")
        body = self._single_stmt()
        return self.node("WhileStmt", start, {}, [cond, body])

    def parse_do(self):
        start = self.pos
        self.expect("do", KEYWORD)
        body = self._single_stmt()
        self.expect("while", KEYWORD)
        self.expect("(")
        cond = self.parse_assign()
        self.expect(")")
        self.expect(";")
        return self.node("DoStmt", start, {}, [body, cond])

    def parse_return(self):
        start = self.pos
        self.expect("return", KEYWORD)
        children = []
        if not self.at_punct(";"):
            children.append(self.parse_assign())
        self.expect(";")
        return self.node("ReturnStmt", start, {}, children)

    def parse_simple(self, kind, keyword):
        start = self.pos
        self.expect(keyword, KEYWORD)
        self.expect(";")
        return self.node(kind, start)

    def parse_goto(self):
        start = self.pos
        self.expect("goto", KEYWORD)
        label = self.expect_ident().text
        self.expect(";")
        return self.node("GotoStmt", start, {"label": label})

    # --- expressions ----------------------------------------------------

    def parse_assign(self):
        """Parse an expression: assignments are right-associative."""
        self.enter()
        expr = self.parse_binary()
        tok = self.peek()
        if tok is not None and tok.kind == PUNCT and tok.text in _ASSIGN_OPS:
            op = self.advance()
            expr = self._op_node("AssignExpr", expr, self.parse_assign(), op)
        self.depth -= 1
        return expr

    def parse_binary(self):
        """Parse a chain of binary operators in one loop over
        ``_BINARY_PRECEDENCE``. An operator waits on ``pending`` until one
        that binds no tighter arrives; all are left-associative."""
        operands = [self.parse_unary()]
        pending = []  # (precedence, operator token)
        while True:
            tok = self.peek()
            precedence = None
            if tok is not None and tok.kind == PUNCT:
                precedence = _BINARY_PRECEDENCE.get(tok.text)
            while pending and (precedence is None or pending[-1][0] >= precedence):
                op = pending.pop()[1]
                rhs = operands.pop()
                operands.append(self._op_node("BinaryExpr", operands.pop(), rhs, op))
            if precedence is None:
                return operands[0]
            pending.append((precedence, self.advance()))
            operands.append(self.parse_unary())

    def _op_node(self, kind, lhs, rhs, op):
        span = SourceSpan(
            self.file,
            lhs.span.row,
            lhs.span.col,
            rhs.span.end_row,
            rhs.span.end_col,
        )
        self._next_id += 1
        return AstNode(
            language=LANGUAGE,
            kind=kind,
            span=span,
            attributes={
                "operator": op.text,
                "op_row": str(op.span.row),
                "op_col": str(op.span.col),
            },
            children=[lhs, rhs],
            node_id=self._next_id,
        )

    def parse_unary(self):
        self.enter()
        start = self.pos
        tok = self.peek()
        if tok is None:
            self.error("expected expression")
        if tok.kind == PUNCT and tok.text in _UNARY_OPS:
            self.advance()
            operand = self.parse_unary()
            expr = self.node("UnaryExpr", start, {"operator": tok.text}, [operand])
        elif tok.is_keyword("new"):
            expr = self.parse_new()
        elif tok.is_keyword("delete"):
            expr = self.parse_delete()
        else:
            expr = self.parse_postfix()
        self.depth -= 1
        return expr

    def parse_new(self):
        start = self.pos
        self.expect("new", KEYWORD)
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        attrs = {"type": base + stars, "array": "false"}
        children = []
        if self.accept_punct("["):
            attrs["array"] = "true"
            children.append(self.parse_assign())
            self.expect("]")
        elif self.accept_punct("("):
            if not self.at_punct(")"):
                children.append(self.parse_assign())
                while self.accept_punct(","):
                    children.append(self.parse_assign())
            self.expect(")")
        return self.node("NewExpr", start, attrs, children)

    def parse_delete(self):
        start = self.pos
        self.expect("delete", KEYWORD)
        array = False
        if self.accept_punct("["):
            self.expect("]")
            array = True
        operand = self.parse_unary()
        return self.node(
            "DeleteExpr", start, {"array": "true" if array else "false"}, [operand]
        )

    def parse_postfix(self):
        start = self.pos
        expr = self.parse_primary()
        while True:
            if self.at_punct("("):
                self.advance()
                args = []
                if not self.at_punct(")"):
                    args.append(self.parse_assign())
                    while self.accept_punct(","):
                        args.append(self.parse_assign())
                self.expect(")")
                expr = self.node("CallExpr", start, {}, [expr] + args)
            elif self.at_punct(".") or self.at_punct("->"):
                op = self.advance().text
                name = self.expect_ident().text
                expr = self.node("MemberExpr", start, {"operator": op, "name": name}, [expr])
            elif self.at_punct("++") or self.at_punct("--"):
                op = self.advance().text
                expr = self.node(
                    "UnaryExpr", start, {"operator": op, "postfix": "true"}, [expr]
                )
            else:
                return expr

    def parse_primary(self):
        start = self.pos
        tok = self.peek()
        if tok is None:
            self.error("expected expression")
        if tok.is_punct("("):
            self.advance()
            inner = self.parse_assign()
            self.expect(")")
            return self.node("ParenExpr", start, {}, [inner])
        if tok.kind in (lexer.INT_LIT, lexer.FLOAT_LIT, lexer.STRING_LIT, lexer.CHAR_LIT):
            self.advance()
            return self.node(
                "Literal", start, {"value": tok.text, "lit_kind": tok.kind}
            )
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self.advance()
            return self.node("Literal", start, {"value": tok.text, "lit_kind": "BOOL_LIT"})
        if tok.is_keyword("this"):
            self.advance()
            return self.node("IdentExpr", start, {"name": "this"})
        if tok.kind == IDENT:
            self.advance()
            return self.node("IdentExpr", start, {"name": tok.text})
        self.error("expected expression, found %r" % tok.text)
