"""FLOW5xx — interprocedural nondeterminism taint analysis.

Proves (up to the precision of the call graph) that no ambient
nondeterminism can reach a consensus-critical byte stream. **Sources** are
the same ambient reads reprolint's DET1xx rules flag locally — wall clock,
RNG, uuid, environment — plus two order hazards: values enumerated out of a
``set`` and float-formatted strings. **Sinks** are the places where bytes
become consensus-visible: canonical JSON, the block/tx codec, digest and
Merkle construction, chaincode state writes, and PBFT message fields.

The analysis is summary-based and runs to a fixed point over the call
graph. For every function it computes:

* ``ret``        — taint kinds its return value may carry (with a witness
                   trace back to the source);
* ``param_ret``  — which parameters flow through to the return value;
* ``param_sink`` — which parameters reach a sink inside the function (or
                   transitively through its callees).

That is exactly the machinery needed to catch the cross-function leaks the
AST-local rules structurally cannot: a helper in ``util/`` returning
``time.time()`` is caught *three calls away* when its value finally lands
in an endorsement digest, with the full source → … → sink chain reported.

**Sanitizers** kill taint: ``sorted``/``min``/``max`` erase set-order
taint (the order becomes defined), and aggregations like ``len``/``sum``
erase all taint (the value no longer depends on the ambient read's
*value*... ``len`` does; ``sum`` keeps value taint). Seeded RNG
(``repro.util.rng``) is deterministic by construction and is never a
source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..linter import (
    CLOCK_CALLS,
    ENV_ATTRS,
    ENV_CALLS,
    RANDOM_CALLS,
    RANDOM_ROOTS,
    UUID_CALLS,
    _is_float_format_spec,
    _printf_has_float,
)
from .callgraph import FunctionInfo, Program, Resolver, _dotted_name

# -- taint kinds ------------------------------------------------------------

CLOCK = "clock"
RANDOM = "random"
UUID = "uuid"
ENV = "env"
SETORDER = "setorder"
FLOATFMT = "floatfmt"

KIND_RULES = {
    CLOCK: "FLOW501",
    RANDOM: "FLOW502",
    UUID: "FLOW503",
    ENV: "FLOW504",
    SETORDER: "FLOW505",
    FLOATFMT: "FLOW506",
}
REAL_KINDS = tuple(KIND_RULES)

# -- sink tables ------------------------------------------------------------

# Program functions (by qualname) whose every argument is consensus-visible.
SINK_QUALNAMES = {
    "repro.util.serialization.canonical_json": "canonical_json",
    "repro.crypto.hashing.digest": "crypto.digest",
    "repro.crypto.hashing.hexdigest": "crypto.hexdigest",
    "repro.crypto.hashing.digest_many": "crypto.digest_many",
    "repro.crypto.merkle.merkle_root": "merkle_root",
    "repro.crypto.merkle.MerkleTree.__init__": "MerkleTree",
    "repro.storage.codec.tx_to_doc": "codec.tx_to_doc",
    "repro.storage.codec.block_to_doc": "codec.block_to_doc",
    "repro.storage.codec.proposal_to_doc": "codec.proposal_to_doc",
    "repro.storage.codec.rwset_to_doc": "codec.rwset_to_doc",
}
# PBFT message constructors: fields enter every replica's decision state.
PBFT_MESSAGE_CLASSES = (
    "repro.consensus.messages.ClientRequest",
    "repro.consensus.messages.PrePrepare",
    "repro.consensus.messages.Prepare",
    "repro.consensus.messages.Commit",
    "repro.consensus.messages.Checkpoint",
    "repro.consensus.messages.ViewChange",
    "repro.consensus.messages.NewView",
)
# External dotted call targets that are sinks wherever they appear.
SINK_EXTERNAL_PREFIXES = ("hashlib.",)
# Attribute-call names that are chaincode state-write sinks even when the
# receiver cannot be resolved (every stub flavour shares these names).
SINK_METHOD_NAMES = frozenset({"put_state", "set_event"})
# Function *names* that are sinks wherever they live — these names are the
# framework's own conventions, so a module outside the qualname table (a
# test fixture, a future refactor) still gets sink treatment.
SINK_SHORT_NAMES = frozenset({"canonical_json", "merkle_root"})

# -- sanitizers / propagation tables ---------------------------------------

# Calls whose result is order-defined: kills SETORDER, keeps value taints.
ORDER_SANITIZERS = frozenset({"sorted", "min", "max"})
# Calls whose result no longer depends on the input *values*.
VALUE_SANITIZERS = frozenset({"len", "bool", "id", "isinstance", "hasattr"})
# Builtins that pass taint straight through argument -> result.
PASSTHROUGH = frozenset({
    "str", "int", "float", "bytes", "bytearray", "abs", "round", "repr",
    "list", "tuple", "dict", "format", "hex", "oct",
})
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
# Clock-family functions that are *pure converters* when given an explicit
# time argument (``time.gmtime(ts)``), and clock reads only when called
# with no more than N positional args (``time.gmtime()`` reads the clock).
CLOCK_CONVERTER_MIN_ARGS = {
    "time.gmtime": 1,
    "time.localtime": 1,
    "time.strftime": 2,          # strftime(fmt) formats *current* time
    "time.ctime": 1,
    "time.asctime": 1,
    "datetime.datetime.fromtimestamp": 1,
    "datetime.datetime.utcfromtimestamp": 1,
    "datetime.date.fromtimestamp": 1,
}

_MAX_TRACE = 12
_MAX_PASSES = 12


@dataclass(frozen=True)
class Taint:
    """One taint fact: a kind plus the witness chain that produced it."""

    kind: object                  # one of REAL_KINDS, or ("param", i)
    trace: tuple[str, ...] = ()

    def extend(self, step: str) -> "Taint":
        if len(self.trace) >= _MAX_TRACE:
            return self
        return Taint(self.kind, self.trace + (step,))


@dataclass(frozen=True)
class SinkHit:
    """A path from a function parameter into a sink."""

    sink: str                     # display name of the sink
    trace: tuple[str, ...]        # steps from the parameter to the sink


@dataclass
class Summary:
    ret: dict[str, tuple[str, ...]] = field(default_factory=dict)   # kind -> trace
    param_ret: set[int] = field(default_factory=set)
    param_sink: dict[int, tuple[SinkHit, ...]] = field(default_factory=dict)

    def signature(self) -> tuple:
        return (
            tuple(sorted((k, v) for k, v in self.ret.items())),
            tuple(sorted(self.param_ret)),
            tuple(sorted((i, hits) for i, hits in self.param_sink.items())),
        )


@dataclass(frozen=True)
class TaintFinding:
    rule_id: str
    path: str
    line: int
    col: int
    sink: str
    kind: str
    trace: tuple[str, ...]


def _loc(fn: FunctionInfo, node: ast.AST) -> str:
    return f"{fn.path}:{getattr(node, 'lineno', fn.line)}"


class _FunctionTaint(ast.NodeVisitor):
    """One intraprocedural pass; call effects come from global summaries."""

    def __init__(
        self,
        analysis: "TaintAnalysis",
        fn: FunctionInfo,
        emit: bool = False,
    ) -> None:
        self.analysis = analysis
        self.program = analysis.program
        self.fn = fn
        self.resolver = Resolver(self.program, fn)
        self.emit = emit
        # var name -> set[Taint]; params seeded with pseudo-kinds.
        self.env: dict[str, set[Taint]] = {}
        self.set_vars: set[str] = set()
        self.ret: set[Taint] = set()
        self.param_sink: dict[int, set[SinkHit]] = {}
        for i, p in enumerate(fn.params):
            self.env[p] = {Taint(("param", i))}

    # -- expression taint --------------------------------------------------

    def taint_of(self, node: ast.expr) -> set[Taint]:
        if isinstance(node, ast.Name):
            taints = set(self.env.get(node.id, ()))
            return taints
        if isinstance(node, ast.Attribute):
            # self.field reads pick up class-field taint.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and self.fn.class_qualname is not None
            ):
                got = self.analysis.field_taint_of(self.fn.class_qualname, node.attr)
                if got:
                    return {
                        Taint(kind, trace).extend(
                            f"{_loc(self.fn, node)}: read of field "
                            f"self.{node.attr} in {self.fn.name}()"
                        )
                        for kind, trace in got.items()
                    }
                return set()
            dotted = _dotted_name(node, self.resolver.aliases)
            if dotted in ENV_ATTRS:
                return {Taint(ENV, (f"{_loc(self.fn, node)}: read of {dotted}",))}
            return set()
        if isinstance(node, ast.Call):
            return self.call_taint(node)
        if isinstance(node, ast.BinOp):
            out = self.taint_of(node.left) | self.taint_of(node.right)
            if (
                isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and _printf_has_float(node.left.value)
            ):
                out.add(Taint(
                    FLOATFMT,
                    (f"{_loc(self.fn, node)}: printf-style float formatting",),
                ))
            return out
        if isinstance(node, (ast.BoolOp,)):
            out: set[Taint] = set()
            for v in node.values:
                out |= self.taint_of(v)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) | self.taint_of(node.orelse)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = set()
            for item in node.elts:
                out |= self.taint_of(item)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for k in node.keys:
                if k is not None:
                    out |= self.taint_of(k)
            for v in node.values:
                out |= self.taint_of(v)
            return out
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value)
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for part in node.values:
                out |= self.taint_of(part)
            return out
        if isinstance(node, ast.FormattedValue):
            out = self.taint_of(node.value)
            if node.format_spec is not None:
                for part in ast.walk(node.format_spec):
                    if (
                        isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                        and _is_float_format_spec(part.value)
                    ):
                        out = out | {Taint(
                            FLOATFMT,
                            (f"{_loc(self.fn, node)}: float format spec "
                             f"{part.value!r} in f-string",),
                        )}
                        break
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = set()
            for gen in node.generators:
                out |= self._iter_taint(gen.iter, node)
            out |= self.taint_of(node.elt)
            return out
        if isinstance(node, ast.DictComp):
            out = set()
            for gen in node.generators:
                out |= self._iter_taint(gen.iter, node)
            out |= self.taint_of(node.key) | self.taint_of(node.value)
            return out
        if isinstance(node, ast.Compare):
            return set()  # a bool comparison result: value taint collapses
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return set()

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in self.set_vars:
            return True
        if isinstance(node, ast.Call):
            callee = self.resolver.resolve_callable(node.func)
            if callee is not None and callee.kind == "external" \
                    and callee.target in SET_CONSTRUCTORS:
                return True
        return False

    def _iter_taint(self, iter_node: ast.expr, at: ast.AST) -> set[Taint]:
        """Taint contributed by enumerating *iter_node* (set order hazard)."""
        out = self.taint_of(iter_node)
        if self._is_set_expr(iter_node):
            out = out | {Taint(
                SETORDER,
                (f"{_loc(self.fn, at)}: enumeration of a set "
                 f"(hash order) in {self.fn.name}()",),
            )}
        return out

    # -- calls -------------------------------------------------------------

    def _arg_exprs(self, call: ast.Call) -> list[tuple[int, ast.expr]]:
        """Positional args with their callee-parameter indexes; keywords get
        index -1 (still sink-checked, never param-mapped)."""
        out = [(i, a) for i, a in enumerate(call.args)]
        out.extend((-1, kw.value) for kw in call.keywords)
        return out

    def call_taint(self, call: ast.Call) -> set[Taint]:
        callee = self.resolver.resolve_callable(call.func)
        arg_taints: dict[int, set[Taint]] = {}
        all_arg_taint: set[Taint] = set()
        for idx, expr in self._arg_exprs(call):
            t = self.taint_of(expr)
            if t:
                arg_taints[idx] = t
                all_arg_taint |= t

        result: set[Taint] = set()
        site = _loc(self.fn, call)

        if callee is not None and callee.kind == "external":
            name = callee.target
            short = name.rsplit(".", 1)[-1]
            need = CLOCK_CONVERTER_MIN_ARGS.get(name)
            if need is not None and len(call.args) >= need:
                # Explicit time argument: a pure conversion, not a read.
                return set(all_arg_taint)
            if name in CLOCK_CALLS or need is not None:
                return {Taint(CLOCK, (f"{site}: call to {name}() [wall clock]",))}
            if (
                name.startswith(RANDOM_ROOTS)
                or name in RANDOM_CALLS
                or name in ("random", "secrets")
            ):
                return {Taint(RANDOM, (f"{site}: call to {name}() [rng]",))}
            if name in UUID_CALLS:
                return {Taint(UUID, (f"{site}: call to {name}() [uuid]",))}
            if name in ENV_CALLS:
                return {Taint(ENV, (f"{site}: call to {name}() [environment]",))}
            if short in ORDER_SANITIZERS or name in ORDER_SANITIZERS:
                return {t for t in all_arg_taint if t.kind != SETORDER}
            if short in VALUE_SANITIZERS or name in VALUE_SANITIZERS:
                return set()
            if short in SET_CONSTRUCTORS:
                return all_arg_taint  # set-typedness tracked by _is_set_expr
            if short in PASSTHROUGH or name in PASSTHROUGH:
                result = set(all_arg_taint)
                if short in ("list", "tuple") and call.args \
                        and self._is_set_expr(call.args[0]):
                    result.add(Taint(
                        SETORDER,
                        (f"{site}: {short}() over a set (hash order)",),
                    ))
                return result
            if any(name.startswith(p) for p in SINK_EXTERNAL_PREFIXES):
                self._check_sink(call, f"{short}", arg_taints)
                return set()
            # Unknown external: be conservative about pass-through so a
            # tainted value laundered through e.g. `copy.deepcopy` survives.
            return set(all_arg_taint)

        if callee is not None and callee.kind == "func":
            target = callee.target
            self._apply_callee_sinks(call, target, arg_taints)
            summary = self.analysis.summaries.get(target)
            if summary is not None:
                cname = self.program.functions[target].name
                for kind, trace in summary.ret.items():
                    result.add(Taint(kind, trace).extend(
                        f"{site}: {self.fn.name}() receives tainted return "
                        f"of {cname}()"
                    ))
                for i in summary.param_ret:
                    for t in arg_taints.get(i, ()):
                        result.add(t.extend(
                            f"{site}: value passes through {cname}()"
                        ))
            return result

        # Unresolved call: method sinks by name, then conservative merge.
        if isinstance(call.func, ast.Attribute) and call.func.attr in SINK_METHOD_NAMES:
            self._check_sink(call, call.func.attr, arg_taints)
            return set()
        return set(all_arg_taint)

    def _apply_callee_sinks(
        self, call: ast.Call, target: str, arg_taints: dict[int, set[Taint]]
    ) -> None:
        """Sink checks for a resolved program callee: intrinsic sink tables
        plus the callee's computed param→sink summary."""
        sink_name = self.analysis.sink_name(target)
        if sink_name is not None:
            self._check_sink(call, sink_name, arg_taints)
        psink = self.analysis.param_sinks(target)
        if not psink:
            return
        site = _loc(self.fn, call)
        cname = self.program.functions[target].name
        for i, hits in psink.items():
            for t in arg_taints.get(i, ()):
                for hit in hits:
                    chain = t.trace + (
                        f"{site}: {self.fn.name}() passes tainted value into "
                        f"{cname}()",
                    ) + hit.trace
                    self._record_sink_flow(call, hit.sink, t.kind, chain)

    def _check_sink(
        self, call: ast.Call, sink_name: str, arg_taints: dict[int, set[Taint]]
    ) -> None:
        site = _loc(self.fn, call)
        for taints in arg_taints.values():
            for t in taints:
                chain = t.trace + (
                    f"{site}: tainted value reaches {sink_name}() [sink]",
                )
                self._record_sink_flow(call, sink_name, t.kind, chain)

    def _record_sink_flow(
        self, call: ast.Call, sink_name: str, kind: object, chain: tuple[str, ...]
    ) -> None:
        if isinstance(kind, tuple) and kind and kind[0] == "param":
            # Taint came from one of our own parameters: contribute to this
            # function's param->sink summary instead of a finding.
            self.param_sink.setdefault(kind[1], set()).add(
                SinkHit(sink=sink_name, trace=chain)
            )
            return
        if self.emit and isinstance(kind, str):
            self.analysis.findings.append(TaintFinding(
                rule_id=KIND_RULES[kind],
                path=self.fn.path,
                line=call.lineno,
                col=call.col_offset,
                sink=sink_name,
                kind=kind,
                trace=chain,
            ))

    # -- statements --------------------------------------------------------

    def _assign_name(self, name: str, taints: set[Taint], is_set: bool) -> None:
        if taints:
            self.env[name] = set(taints)
        else:
            self.env.pop(name, None)
        if is_set:
            self.set_vars.add(name)
        else:
            self.set_vars.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        taints = self.taint_of(node.value)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            self._bind_target(target, taints, is_set, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind_target(
                node.target, self.taint_of(node.value),
                self._is_set_expr(node.value), node,
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        add = self.taint_of(node.value)
        if isinstance(node.target, ast.Name):
            if add:
                self.env.setdefault(node.target.id, set()).update(add)
        elif isinstance(node.target, ast.Attribute):
            self._bind_field(node.target, add, node)
        self.generic_visit(node)

    def _bind_target(
        self, target: ast.expr, taints: set[Taint], is_set: bool, at: ast.AST
    ) -> None:
        if isinstance(target, ast.Name):
            self._assign_name(target.id, taints, is_set)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taints, False, at)
        elif isinstance(target, ast.Attribute):
            self._bind_field(target, taints, at)
        elif isinstance(target, ast.Subscript):
            # d[k] = tainted -> the container is tainted.
            if isinstance(target.value, ast.Name) and taints:
                self.env.setdefault(target.value.id, set()).update(taints)

    def _bind_field(self, target: ast.Attribute, taints: set[Taint], at: ast.AST) -> None:
        if (
            isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
            and self.fn.class_qualname is not None
        ):
            real = {t for t in taints if isinstance(t.kind, str)}
            if real:
                self.analysis.taint_field(
                    self.fn.class_qualname, target.attr,
                    {
                        t.kind: t.trace + (
                            f"{_loc(self.fn, at)}: stored into field "
                            f"self.{target.attr} by {self.fn.name}()",
                        )
                        for t in real
                    },
                )

    def visit_For(self, node: ast.For) -> None:
        taints = self._iter_taint(node.iter, node)
        self._bind_target(node.target, taints, False, node)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.ret |= self.taint_of(node.value)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        # Evaluate for sink effects even when the result is discarded.
        self.taint_of(node.value)
        self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        # Do not descend into nested defs — they are separate functions.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            self.visit(child)

    def run(self) -> Summary:
        for stmt in self.fn.node.body:
            self.visit(stmt)
        summary = Summary()
        for t in self.ret:
            if isinstance(t.kind, str):
                prev = summary.ret.get(t.kind)
                if prev is None or len(t.trace) < len(prev):
                    summary.ret[t.kind] = t.trace
            elif isinstance(t.kind, tuple) and t.kind[0] == "param":
                summary.param_ret.add(t.kind[1])
        for i, hits in self.param_sink.items():
            summary.param_sink[i] = tuple(sorted(hits, key=lambda h: (h.sink, h.trace)))
        return summary


class TaintAnalysis:
    """Fixed-point driver over the program's functions."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.summaries: dict[str, Summary] = {}
        self.field_taints: dict[tuple[str, str], dict[str, tuple[str, ...]]] = {}
        self.findings: list[TaintFinding] = []
        self._fields_dirty = False

    # -- shared state ------------------------------------------------------

    def sink_name(self, qualname: str) -> str | None:
        if qualname in SINK_QUALNAMES:
            return SINK_QUALNAMES[qualname]
        for cls in PBFT_MESSAGE_CLASSES:
            if qualname == cls or qualname == f"{cls}.__init__":
                return cls.rsplit(".", 1)[-1]
        short = qualname.rsplit(".", 1)[-1]
        if short in SINK_METHOD_NAMES or short in SINK_SHORT_NAMES:
            return short
        return None

    def param_sinks(self, qualname: str) -> dict[int, tuple[SinkHit, ...]]:
        summary = self.summaries.get(qualname)
        return summary.param_sink if summary is not None else {}

    def field_taint_of(self, class_qualname: str, attr: str) -> dict[str, tuple[str, ...]]:
        # Walk declared bases so a field tainted in a parent class is seen
        # through subclass reads.
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            cq = queue.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            got = self.field_taints.get((cq, attr))
            if got:
                return got
            info = self.program.classes.get(cq)
            if info is not None:
                queue.extend(info.bases)
        return {}

    def taint_field(
        self, class_qualname: str, attr: str, kinds: dict[str, tuple[str, ...]]
    ) -> None:
        slot = self.field_taints.setdefault((class_qualname, attr), {})
        for kind, trace in kinds.items():
            if kind not in slot:
                slot[kind] = trace
                self._fields_dirty = True

    # -- driver ------------------------------------------------------------

    def run(self) -> list[TaintFinding]:
        order = sorted(self.program.functions)
        # Fixed point: summaries + field taints.
        for _ in range(_MAX_PASSES):
            changed = False
            self._fields_dirty = False
            for qual in order:
                fn = self.program.functions[qual]
                summary = _FunctionTaint(self, fn, emit=False).run()
                prev = self.summaries.get(qual)
                if prev is None or prev.signature() != summary.signature():
                    self.summaries[qual] = summary
                    changed = True
            if not changed and not self._fields_dirty:
                break
        # Emission pass with converged summaries.
        self.findings = []
        for qual in order:
            _FunctionTaint(self, self.program.functions[qual], emit=True).run()
        # Deduplicate: one finding per (rule, site, sink) with the shortest
        # witness chain.
        best: dict[tuple, TaintFinding] = {}
        for f in self.findings:
            key = (f.rule_id, f.path, f.line, f.col, f.sink)
            old = best.get(key)
            if old is None or len(f.trace) < len(old.trace):
                best[key] = f
        out = sorted(
            best.values(), key=lambda f: (f.path, f.line, f.col, f.rule_id, f.sink)
        )
        return out


def analyze_taint(program: Program) -> list[TaintFinding]:
    return TaintAnalysis(program).run()
