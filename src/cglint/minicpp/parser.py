"""Recursive-descent parser for the C++ subset, which builds the unit's
symbol table as it parses.

Each namespace, class (unless forward), function, constructor, destructor,
``CompoundStmt``, ``for`` and ``switch`` opens a scope through
``Scope.open``, recorded in the table against its node (the blocks of a
namespace share one). Each class, function, named variable or parameter,
typedef and named enum declares its binding in the current scope, recorded
against its node (a class's declarations share one); a class and a
function are declared before their bodies are parsed. A ``using
namespace`` whose namespace resolves adds it to the current scope's
``used``. The table's diagnostics are sorted into document order at the end.

Statements beginning with an identifier are ambiguous (``T * x;`` is a
declaration when ``T`` names a type, an expression otherwise).
``at_declaration`` asks ``Scope.lookup`` on the same tree: the name is a
type iff its innermost binding is a class, an enum, a typedef, or a
constructor or destructor (whose name is its class's), so a variable,
parameter or function hides a type. An unbraced ``if``, ``else``,
``while``, ``do`` or ``for`` body that is a declaration is wrapped in a
``CompoundStmt`` whose scope holds its names.

Each grammar job that several constructs share has one method:
``parse_declaration`` (``[static] type stars name``, then a function or
declarators), ``parse_items`` (the items of a namespace, class or block up
to its ``}``, in the scope it is given), ``parse_body`` (the binding of a
function, constructor or destructor, then its ``{…}`` or ``;``),
``Cursor.parse_list`` (``( a, b )``: arguments and parameters),
``parse_dropped`` (a parse whose nodes are dropped: default arguments and
constructor initializers), ``parse_condition`` (``keyword ( expression
)``) and ``parse_qualified_name`` (``A::B``). Every parse method for a
construct that may expand to several nodes returns a list.

Node ids and spans come from ``scan.Cursor``: every node goes through its
``node``, except an empty unit's root, which goes through its ``make``.

Node attribute values are ``str`` or ``bool``: names, types and operators
are text, and flags such as ``virtual`` or ``has_init`` are bools. The text
of one token determines the attributes of an ``IdentExpr``, a ``Literal``
and a binary, assignment or prefix operator node (an identifier, a literal
and a punctuator never share a text), so these carry the unit's one
read-only mapping (``Cursor.shared``) per distinct text. A binary or
assignment operator's position is not kept: its token is the one after the
last token of the node's left operand.
"""

from __future__ import annotations

from ..errors import ParseError
from ..model import SourceSpan
from ..scan import Cursor, point
from ..symtab import (
    ClassBinding,
    FunctionBinding,
    ScopeKind,
    Specifier,
    SymbolTable,
    TypeBinding,
    VariableBinding,
)
from . import lexer
from .lexer import IDENT, KEYWORD

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
_ACCESS = {"public": Specifier.PUBLIC, "protected": Specifier.PROTECTED, "private": Specifier.PRIVATE}
# the keywords that start a declaration statement, besides a type's
_DECLARATIONS = ("class", "enum", "typedef", "using")
_LITERALS = (lexer.INT_LIT, lexer.FLOAT_LIT, lexer.STRING_LIT, lexer.CHAR_LIT)
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
_UNARY_OPS = ("!", "-", "+", "*", "&", "~", "++", "--")
# (attribute, specifier): a function whose attribute is set has the specifier
_SPECIFIERS = (
    ("virtual", Specifier.VIRTUAL),
    ("pure", Specifier.VIRTUAL),
    ("pure", Specifier.PURE_VIRTUAL),
    ("static", Specifier.STATIC),
)
# Binary operator -> precedence (higher binds tighter); all left-associative.
_BINARY_PRECEDENCE = {
    "||": 0, "&&": 1, "|": 2, "^": 3, "&": 4,
    "==": 5, "!=": 5, "<": 6, ">": 6, "<=": 6, ">=": 6,
    "<<": 7, ">>": 7, "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}


def parse(tokens, table=None):
    """Parse a token stream into a TranslationUnit node, filling ``table``
    (a new ``SymbolTable`` if None) with the unit's scopes and bindings.
    Spans name the file the tokens were lexed from."""
    parser = _Parser(tokens, SymbolTable() if table is None else table)
    unit = parser.parse_unit()
    parser.table.diagnostics.sort(key=lambda diagnostic: diagnostic.span[1:3])
    return unit


class _Parser(Cursor):
    """Recursive descent over the ``Tokens`` of one unit. A punctuator's or
    keyword's text is never the text of a token of another kind, so ``at``
    compares texts only.
    """

    def __init__(self, tokens, table):
        super().__init__(tokens, LANGUAGE, IDENT)
        self.table = table
        self.scope = table.global_scope  # the innermost scope of the current item
        self.cls = None  # the ClassBinding of the class body being parsed
        self.access = None  # its current access specifier; None outside class bodies

    # --- token helpers -------------------------------------------------

    def at_end(self):
        return self.pos >= self.count

    def at_kind(self, kind, offset=0):
        return self.kinds[self.pos + offset] == kind

    def advance(self):
        """Consume the current token and return its text."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def accept(self, text):
        """Consume the current token iff it is ``text``; True iff it was."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def error(self, message):
        """Raise a ParseError at the current token; at the end of input, at
        the last character of the last token (``parse_unit`` parses nothing
        when there is none)."""
        if self.at_end():
            last = self.count - 1
            span = SourceSpan.point(self.file, *point(self.lines, self.starts[last] + len(self.texts[last]) - 1))
        else:
            span = self.tokens.span(self.pos, self.pos)
        raise ParseError(span, message)

    # --- type names ---------------------------------------------------

    def at_declaration(self):
        """True iff a declaration starts at the current token: a built-in
        type keyword, ``const``/``static``, or a possibly qualified
        identifier whose innermost binding here is a type."""
        kind = self.kinds[self.pos]
        text = self.texts[self.pos]
        if kind == KEYWORD:
            return text in _TYPE_KEYWORDS or text in ("const", "static")
        if kind != IDENT:
            return False
        start = self.pos
        binding = self.scope.lookup(self.parse_qualified_name())
        self.pos = start
        if isinstance(binding, FunctionBinding):
            return binding.is_constructor or binding.is_destructor
        return isinstance(binding, (ClassBinding, TypeBinding))

    # --- symbols --------------------------------------------------------

    def declared(self, node, binding):
        """``node``, recorded as the declaration of ``binding`` in the
        current scope."""
        return self.table.record(node, binding=binding, duplicate=self.table.declare(self.scope, binding))

    def declare_variable(self, node, **flags):
        """Declare the variable or parameter ``node`` names, if it names
        one; a class's variable is one of its data members."""
        attrs = node.attributes
        if not attrs["name"]:
            return
        binding = VariableBinding(
            attrs["name"],
            attrs["type"],
            has_initializer=attrs.get("has_init", False),
            is_member=self.scope.kind is ScopeKind.CLASS,
            decl_span=node.span,
            **flags,
        )
        self.declared(node, binding)
        if binding.is_member:
            self.cls.data_members.append(binding)

    # --- top level ------------------------------------------------------

    def parse_unit(self):
        children = []
        while not self.at_end():
            children.extend(self.parse_top_decl())
        if self.count:
            return self.node("TranslationUnit", 0, children=children)
        return self.make("TranslationUnit", SourceSpan.point(self.file, 1, 1))

    def parse_top_decl(self):
        """Parse one namespace-level declaration; declarators may expand to
        several nodes."""
        self.enter()
        text = self.texts[self.pos]
        if text == "namespace":
            decls = [self.parse_namespace()]
        elif text == "using":
            decls = [self.parse_using()]
        elif text in self._TYPE_DECLS:
            decls = [self._TYPE_DECLS[text](self)]
        else:
            start = self.pos
            decls = self.parse_declaration(start, self.accept("static"))
        self.depth -= 1
        return decls

    def parse_items(self, what, scope, parse_item):
        """Parse the items of a namespace, class or block up to its closing
        ``}``, which it consumes, in ``scope``, which it enters and leaves;
        each ``parse_item()`` returns a list. ``what`` names the
        construct when the input ends first."""
        self.scope = scope
        items = []
        while self.texts[self.pos] != "}":
            if self.pos >= self.count:
                self.error("unterminated " + what)
            items += parse_item()
        self.pos += 1
        self.scope = scope.parent
        return items

    def parse_namespace(self):
        start = self.pos
        self.expect("namespace")
        name = self.expect_ident()
        self.expect("{")
        scope = self.scope.open(ScopeKind.NAMESPACE, name)
        children = self.parse_items("namespace %r" % name, scope, self.parse_top_decl)
        return self.table.record(self.node("NamespaceDef", start, {"name": name}, children), scope)

    def parse_using(self):
        start = self.pos
        self.expect("using")
        self.expect("namespace")
        parts = [self.expect_ident()]
        while self.accept("::"):
            parts.append(self.expect_ident())
        self.expect(";")
        used = self.scope.lookup_scope(parts)
        if used is not None and used.kind is ScopeKind.NAMESPACE:
            self.scope.used += (used,)
        return self.node("UsingDirective", start, {"name": "::".join(parts)})

    # --- types ----------------------------------------------------------

    def parse_base_type(self):
        """Parse a type up to, but excluding, declarator stars."""
        parts = []
        while self.at("const"):
            self.advance()
            parts.append("const")
        if self.texts[self.pos] in _TYPE_KEYWORDS:
            while self.texts[self.pos] in _TYPE_KEYWORDS:
                parts.append(self.advance())
        elif self.kinds[self.pos] == IDENT:
            parts.append(self.parse_qualified_name())
        else:
            self.expected("type")
        while self.at("const"):
            self.advance()
            parts.append("const")
        return " ".join(parts)

    def parse_qualified_name(self):
        """Parse an identifier, or ``A::B::C``, and return its text."""
        name = self.expect_ident()
        while self.texts[self.pos] == "::" and self.kinds[self.pos + 1] == IDENT:
            name += "::" + self.texts[self.pos + 1]
            self.pos += 2
        return name

    def parse_pointer_suffix(self):
        suffix = ""
        while self.at("*") or self.at("&"):
            suffix += self.advance()
        return suffix

    # --- classes --------------------------------------------------------

    def parse_class(self):
        start = self.pos
        self.expect("class")
        name = self.expect_ident()
        binding = self.scope.lookup_local(name)
        if not isinstance(binding, ClassBinding):
            binding = ClassBinding(name)
        duplicate = self.table.declare(self.scope, binding)
        children = []
        bases = []  # a forward declaration's bases are not kept
        if self.accept(":"):
            while True:
                base_start = self.pos
                access = self.advance() if self.texts[self.pos] in _ACCESS else "private"
                base_name = self.parse_qualified_name()
                base = self.scope.lookup(base_name)
                bases.append((base if isinstance(base, ClassBinding) else None, _ACCESS[access], base_name))
                children.append(self.node("BaseSpec", base_start, {"access": access, "name": base_name}))
                if not self.accept(","):
                    break
        if self.accept(";"):
            node = self.node("ClassDef", start, {"name": name, "forward": True})
            return self.table.record(node, binding=binding, duplicate=duplicate)
        self.expect("{")
        binding.bases += bases
        scope = binding.scope = self.scope.open(ScopeKind.CLASS, name)
        outer = self.cls, self.access
        self.cls, self.access = binding, Specifier.PRIVATE  # class members default to private
        children += self.parse_items("class %r" % name, scope, self.parse_member)
        self.cls, self.access = outer
        self.expect(";")
        return self.table.record(self.node("ClassDef", start, {"name": name}, children), scope, binding, duplicate)

    def parse_member(self):
        self.enter()
        start = self.pos
        text = self.texts[start]
        if text in _ACCESS:
            self.advance()
            self.expect(":")
            self.access = _ACCESS[text]
            members = [self.node("AccessSection", start, {"access": text})]
        elif text in self._TYPE_DECLS:
            members = [self._TYPE_DECLS[text](self)]
        else:
            virtual = self.accept("virtual")
            static = self.accept("static")
            if self.at("~"):
                members = [self.parse_destructor(start, virtual)]
            elif (
                not virtual
                and not static
                and self.at_kind(IDENT)
                and self.at(self.cls.name)
                and self.at("(", 1)
            ):
                members = [self.parse_constructor(start)]
            else:
                members = self.parse_declaration(start, static, virtual)
        self.depth -= 1
        return members

    def parse_destructor(self, start, virtual):
        self.expect("~")
        name = self.expect_ident()
        self.scope = self.scope.open(ScopeKind.FUNCTION, name)
        self.expect("(")
        self.expect(")")
        attrs = {"name": name, "virtual": virtual, "pure": self._accept_pure()}
        return self.parse_body("Destructor", start, attrs, [])

    def parse_constructor(self, start):
        name = self.advance()
        self.scope = self.scope.open(ScopeKind.FUNCTION, name)
        params = self.parse_params()
        if self.accept(":"):  # initializers ``a(x), b(y)``
            while True:
                self.expect_ident()
                self.parse_dropped(self.parse_list, self.parse_assign)
                if not self.accept(","):
                    break
        return self.parse_body("Constructor", start, {"name": name}, params)

    def _accept_pure(self):
        if self.at("=") and self.at("0", 1):
            self.advance()
            self.advance()
            return True
        return False

    def parse_dropped(self, parse, *args):
        """Call ``parse(*args)`` for its checks only: the ids of the nodes
        it makes are given again to the nodes made next."""
        next_id = self._next_id
        parse(*args)
        self._next_id = next_id

    def parse_params(self):
        if self.at("void", 1) and self.at(")", 2):  # f(void)
            self.pos += 3
            return []
        return self.parse_list(self.parse_param)

    def parse_param(self):
        start = self.pos
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.advance() if self.at_kind(IDENT) else ""
        if self.accept("="):  # default argument
            self.parse_dropped(self.parse_assign)
        node = self.node("ParamDecl", start, {"name": name, "type": base + stars})
        self.declare_variable(node, is_parameter=True)
        return node

    def parse_body(self, kind, start, attrs, params):
        """Declare the function, constructor or destructor whose FUNCTION
        scope is the current one and whose ``params`` are parsed, in the
        scope around; then parse its ``{…}`` body, a block like any other,
        or its ``;``, leave the scope and return its node, with the body
        after ``params``."""
        scope = self.scope
        binding = FunctionBinding(
            attrs["name"],
            {spec for flag, spec in _SPECIFIERS if attrs.get(flag)},
            [param.attributes["type"] for param in params],
            attrs.get("return_type", ""),
            is_constructor=kind == "Constructor",
            is_destructor=kind == "Destructor",
        )
        if scope.parent.kind is ScopeKind.CLASS:
            binding.specifiers.add(self.access)
            self.cls.functions.append(binding)
        duplicate = self.table.declare(scope.parent, binding)
        if self.at("{"):
            params.append(self.parse_compound())
        else:
            self.expect(";")
        self.scope = scope.parent
        return self.table.record(self.node(kind, start, attrs, params), scope, binding, duplicate)

    # --- enums / typedefs ----------------------------------------------

    def parse_enum(self):
        start = self.pos
        self.expect("enum")
        name = ""
        if self.at_kind(IDENT):
            name = self.advance()
        self.expect("{")
        enumerators = []
        while not self.at("}"):
            e_start = self.pos
            e_name = self.expect_ident()
            has_init = self.accept("=")
            children = [self.parse_assign()] if has_init else []
            enumerators.append(
                self.node("Enumerator", e_start, {"name": e_name, "has_init": has_init}, children)
            )
            if not self.accept(","):
                break
        self.expect("}")
        self.accept(";")
        node = self.node("EnumDef", start, {"name": name}, enumerators)
        return self.declared(node, TypeBinding(name)) if name else node

    def parse_typedef(self):
        start = self.pos
        self.expect("typedef")
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.expect_ident()
        self.expect(";")
        return self.declared(self.node("TypedefDecl", start, {"name": name, "type": base + stars}), TypeBinding(name))

    # --- functions and variables ---------------------------------------

    def parse_declaration(self, start, static, virtual=False, function=True):
        """Parse ``type stars name``, after any ``static`` or ``virtual``
        from ``start``, then the rest of a function if ``function`` allows
        one and ``(`` follows, else the declarators. Returns a list."""
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        name = self.expect_ident()
        if not (function and self.at("(")):
            return self.parse_declarators(start, base, stars, name)
        self.scope = self.scope.open(ScopeKind.FUNCTION, name)
        params = self.parse_params()
        attrs = {
            "name": name,
            "return_type": base + stars,
            "virtual": virtual,
            "static": static,
            "const": self.accept("const"),
            "pure": self._accept_pure(),
        }
        return [self.parse_body("FunctionDef", start, attrs, params)]

    def parse_declarators(self, start, base_type, stars, name):
        """Parse the remainder of ``type name [...], name2, ...;``."""
        decls = []
        decl_start = start
        while True:
            attrs = {"name": name, "type": base_type + stars}
            children = []
            if self.accept("["):
                attrs["type"] += "[]"
                attrs["array"] = True
                if not self.at("]"):
                    children.append(self.parse_assign())
                self.expect("]")
            attrs["has_init"] = self.accept("=")
            if attrs["has_init"]:
                children.append(self.parse_assign())
            decls.append(self.node("VarDecl", decl_start, attrs, children))
            self.declare_variable(decls[-1])
            if not self.accept(","):
                break
            decl_start = self.pos
            stars = self.parse_pointer_suffix()
            name = self.expect_ident()
        self.expect(";")
        return decls

    # --- statements -----------------------------------------------------

    def parse_compound(self):
        start = self.pos
        self.expect("{")
        scope = self.scope.open(ScopeKind.BLOCK)
        children = self.parse_items("block", scope, self.parse_stmt)
        return self.table.record(self.node("CompoundStmt", start, children=children), scope)

    def parse_stmt(self):
        """Parse one statement; declarations may expand to several nodes."""
        self.enter()
        if self.at_end():
            self.expected("statement")
        text = self.texts[self.pos]
        handler = self._STATEMENTS.get(text)
        if text == "{":
            stmts = [self.parse_compound()]
        elif text == ";":
            start = self.pos
            self.advance()
            stmts = [self.node("ExprStmt", start)]
        elif handler is not None:
            stmts = [handler(self)]
        elif self.kinds[self.pos] == IDENT and self.at(":", 1):
            start = self.pos
            name = self.advance()
            self.advance()
            stmts = [self.node("LabelStmt", start, {"name": name})]
        elif self.at_declaration():
            start = self.pos
            stmts = self.parse_declaration(start, self.accept("static"), function=False)
        else:
            stmts = [self.parse_expr_stmt()]
        self.depth -= 1
        return stmts

    def parse_expr_stmt(self):
        start = self.pos
        expr = self.parse_assign()
        self.expect(";")
        return self.node("ExprStmt", start, children=[expr])

    def parse_condition(self, keyword):
        """Parse ``keyword ( expression )`` and return the expression."""
        self.expect(keyword)
        self.expect("(")
        cond = self.parse_assign()
        self.expect(")")
        return cond

    def parse_if(self):
        start = self.pos
        cond = self.parse_condition("if")
        then = self._single_stmt()
        children = [cond, then]
        has_else = self.accept("else")
        if has_else:
            children.append(self._single_stmt())
        return self.node("IfStmt", start, {"has_else": has_else}, children)

    def _single_stmt(self):
        """Parse an unbraced body. A declaration there is parsed in a BLOCK
        scope of its own, and its nodes, in order, are grouped under a
        CompoundStmt spanning from the first token of the first to the last
        token of the last."""
        if not (self.texts[self.pos] in _DECLARATIONS or self.at_declaration() and not self.at(":", 1)):
            return self.parse_stmt()[0]
        scope = self.scope = self.scope.open(ScopeKind.BLOCK)
        stmts = self.parse_stmt()
        self.scope = scope.parent
        return self.table.record(self.node("CompoundStmt", stmts[0].first, children=stmts, last=stmts[-1].last), scope)

    def parse_switch(self):
        start = self.pos
        cond = self.parse_condition("switch")
        self.expect("{")
        scope = self.scope = self.scope.open(ScopeKind.BLOCK)
        children = [cond]
        while not self.at("}"):
            c_start = self.pos
            if self.accept("case"):
                label = self.parse_assign()
                self.expect(":")
                body = self._clause_body()
                children.append(self.node("CaseClause", c_start, children=[label] + body))
            elif self.accept("default"):
                self.expect(":")
                body = self._clause_body()
                children.append(self.node("DefaultClause", c_start, children=body))
            else:
                self.error("expected 'case' or 'default'")
        self.expect("}")
        self.scope = scope.parent
        return self.table.record(self.node("SwitchStmt", start, children=children), scope)

    def _clause_body(self):
        body = []
        while not (
            self.at("}") or self.at("case") or self.at("default")
        ):
            if self.at_end():
                self.error("unterminated switch body")
            body.extend(self.parse_stmt())
        return body

    def parse_for(self):
        start = self.pos
        self.expect("for")
        self.expect("(")
        scope = self.scope = self.scope.open(ScopeKind.BLOCK)  # the loop index's
        children = []
        attrs = {"has_init": not self.accept(";")}
        if attrs["has_init"]:
            if self.at_declaration():
                decl_start = self.pos
                children.extend(self.parse_declaration(decl_start, self.accept("static"), function=False))
                for decl in children:
                    self.table.binding_of(decl).is_loop_index = True
            else:
                children.append(self.parse_assign())
                self.expect(";")
        attrs["has_cond"] = not self.at(";")
        if attrs["has_cond"]:
            children.append(self.parse_assign())
        self.expect(";")
        attrs["has_step"] = not self.at(")")
        if attrs["has_step"]:
            children.append(self.parse_assign())
        self.expect(")")
        children.append(self._single_stmt())
        self.scope = scope.parent
        return self.table.record(self.node("ForStmt", start, attrs, children), scope)

    def parse_while(self):
        start = self.pos
        cond = self.parse_condition("while")
        body = self._single_stmt()
        return self.node("WhileStmt", start, children=[cond, body])

    def parse_do(self):
        start = self.pos
        self.expect("do")
        body = self._single_stmt()
        cond = self.parse_condition("while")
        self.expect(";")
        return self.node("DoStmt", start, children=[body, cond])

    def parse_return(self):
        start = self.pos
        self.expect("return")
        children = []
        if not self.at(";"):
            children.append(self.parse_assign())
        self.expect(";")
        return self.node("ReturnStmt", start, children=children)

    def parse_simple(self, kind, keyword):
        start = self.pos
        self.expect(keyword)
        self.expect(";")
        return self.node(kind, start)

    def parse_goto(self):
        start = self.pos
        self.expect("goto")
        label = self.expect_ident()
        self.expect(";")
        return self.node("GotoStmt", start, {"label": label})

    # --- expressions ----------------------------------------------------

    def parse_assign(self):
        """Parse an expression: assignments are right-associative."""
        self.enter()
        start = self.pos
        expr = self.parse_binary()
        if self.texts[self.pos] in _ASSIGN_OPS:
            op = self.advance()
            expr = self.node("AssignExpr", start, self.shared(op, operator=op), [expr, self.parse_assign()])
        self.depth -= 1
        return expr

    def parse_binary(self):
        """Parse a chain of binary operators in one loop over
        ``_BINARY_PRECEDENCE``. An operator waits on ``pending`` until one
        that binds no tighter arrives; all are left-associative."""
        operands = [(self.pos, self.parse_unary())]  # (first token index, operand)
        pending = []  # (precedence, the operator's attributes)
        while True:
            precedence = _BINARY_PRECEDENCE.get(self.texts[self.pos])
            while pending and (precedence is None or pending[-1][0] >= precedence):
                attrs = pending.pop()[1]
                rhs = operands.pop()[1]
                start, lhs = operands[-1]
                operands[-1] = start, self.node("BinaryExpr", start, attrs, [lhs, rhs])
            if precedence is None:
                return operands[0][1]
            op = self.advance()
            pending.append((precedence, self.shared(op, operator=op)))
            operands.append((self.pos, self.parse_unary()))

    def parse_unary(self):
        self.enter()
        start = self.pos
        text = self.texts[start]
        if text in _UNARY_OPS:
            self.advance()
            operand = self.parse_unary()
            expr = self.node("UnaryExpr", start, self.shared(text, operator=text), [operand])
        elif text == "new":
            expr = self.parse_new()
        elif text == "delete":
            expr = self.parse_delete()
        else:
            expr = self.parse_postfix()
        self.depth -= 1
        return expr

    def parse_new(self):
        start = self.pos
        self.expect("new")
        base = self.parse_base_type()
        stars = self.parse_pointer_suffix()
        attrs = {"type": base + stars, "array": self.accept("[")}
        children = []
        if attrs["array"]:
            children.append(self.parse_assign())
            self.expect("]")
        elif self.at("("):
            children = self.parse_list(self.parse_assign)
        return self.node("NewExpr", start, attrs, children)

    def parse_delete(self):
        start = self.pos
        self.expect("delete")
        array = self.accept("[")
        if array:
            self.expect("]")
        operand = self.parse_unary()
        return self.node("DeleteExpr", start, {"array": array}, [operand])

    def parse_postfix(self):
        start = self.pos
        expr = self.parse_primary()
        while True:
            if self.at("("):
                expr = self.node("CallExpr", start, children=[expr] + self.parse_list(self.parse_assign))
            elif self.at(".") or self.at("->"):
                op = self.advance()
                name = self.expect_ident()
                expr = self.node("MemberExpr", start, {"operator": op, "name": name}, [expr])
            elif self.at("++") or self.at("--"):
                op = self.advance()
                expr = self.node("UnaryExpr", start, {"operator": op, "postfix": True}, [expr])
            else:
                return expr

    def parse_primary(self):
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        if text == "(":
            self.advance()
            inner = self.parse_assign()
            self.expect(")")
            return self.node("ParenExpr", start, children=[inner])
        if kind in _LITERALS:
            self.advance()
            return self.node("Literal", start, self.shared(text, value=text, lit_kind=kind))
        if text == "true" or text == "false":
            self.advance()
            return self.node("Literal", start, self.shared(text, value=text, lit_kind="BOOL_LIT"))
        if kind == IDENT or text == "this":
            self.advance()
            return self.node("IdentExpr", start, self.shared(text, name=text))
        self.expected("expression")

    # keyword -> the method that parses the type declaration it starts
    _TYPE_DECLS = {"class": parse_class, "enum": parse_enum, "typedef": parse_typedef}
    # keyword -> the method that parses the statement it starts
    _STATEMENTS = {
        "if": parse_if,
        "switch": parse_switch,
        "for": parse_for,
        "while": parse_while,
        "do": parse_do,
        "return": parse_return,
        "break": lambda self: self.parse_simple("BreakStmt", "break"),
        "continue": lambda self: self.parse_simple("ContinueStmt", "continue"),
        "goto": parse_goto,
        "using": parse_using,
        **_TYPE_DECLS,
    }
