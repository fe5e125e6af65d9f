"""FLOW5xx — interprocedural nondeterminism taint analysis.

Proves (up to the precision of the call graph) that no ambient
nondeterminism can reach a consensus-critical byte stream. **Sources** are
ambient reads — wall clock, RNG, uuid, environment — plus two order
hazards: values enumerated out of a ``set`` and float-formatted strings.
**Sinks** are the places where bytes become consensus-visible: canonical
JSON, the block/tx codec, digest and Merkle construction, chaincode state
writes, what a chaincode function returns (``Chaincode.dispatch`` renders
it into the response every endorser signs), and PBFT message fields.

The analysis is summary-based and runs to a fixed point over the call
graph. For every function it computes:

* ``ret``        — taint kinds its return value may carry (with a witness
                   trace back to the source);
* ``param_ret``  — which parameters flow through to the return value;
* ``param_sink`` — which parameters reach a sink inside the function (or
                   transitively through its callees).

That is exactly the machinery needed to catch cross-function leaks: a
helper in ``util/`` returning ``time.time()`` is caught *three calls away*
when its value finally lands in an endorsement digest, with the full
source → … → sink chain reported.

Taint also moves along edges that are not plain assignment. A str/bytes/
datetime value method (``.encode()``, ``.isoformat()``, ``.hex()``, …)
or field (``.year``) returns something derived from its receiver, so its
result carries the receiver's taint. A container mutator
(``xs.append(v)``) taints its receiver, and ``shuffle(xs)`` taints ``xs``
with the rng's. A branch on a clock, rng, uuid or environment value
decides what the guarded code does, so what the body binds, writes,
returns or raises picks up the taint of its test, and so does the rest of
the block after a body that always exits (``if expired: raise``). Module
and class bodies are analysed like functions; what they bind is read as a
global or a class field.

**Sanitizers** kill taint: ``sorted``/``min``/``max`` erase set-order
taint (the order becomes defined), and ``len``/``bool``/``id``/
``isinstance``/``hasattr`` erase all taint (the result no longer depends
on the tainted value). Seeded RNG (``repro.util.rng``) is deterministic by
construction and is never a source.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field

from repro.errors import AnalysisError

from ..rules import FlowFinding
from .callgraph import Callee, FunctionInfo, Program, Resolver, _dotted_name

# -- source tables ----------------------------------------------------------

# Dotted call targets that read ambient state, resolved through import
# aliases (``import time as t`` still reads ``time.time``).
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns", "time.localtime",
    "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
RANDOM_ROOTS = ("random.", "secrets.", "numpy.random.")
RANDOM_CALLS = frozenset({"os.urandom"})
ENV_CALLS = frozenset({"os.getenv", "os.getenvb"})
# Reading these mappings, or calling any of their methods, reads the
# environment.
ENV_ATTRS = frozenset({"os.environ", "os.environb"})
UUID_CALLS = frozenset({"uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5"})

# Float presentation types in a format spec / printf string.
_FLOAT_SPEC_CHARS = "feEgG%"


def _is_float_format_spec(spec: str) -> bool:
    spec = spec.strip()
    return bool(spec) and spec[-1] in _FLOAT_SPEC_CHARS


def _printf_has_float(fmt: str) -> bool:
    """``'%.2f' % x``: a conversion (``%%`` is none) of a float type."""
    return any(m[1][-1] in "feEgG" for m in re.finditer(r"%(%|[-+ #0-9.*]*[a-zA-Z])", fmt))


def _format_has_float(fmt: str) -> bool:
    """``'{:.2f}'.format(x)``: a replacement field with a float spec."""
    for seg in fmt.split("{")[1:]:
        spec = seg.split("}")[0]
        if ":" in spec and _is_float_format_spec(spec.rsplit(":", 1)[1]):
            return True
    return False


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
# Kinds whose *value* differs per replica, so a branch on one diverges
# what the guarded code does. Set order and float presentation are not
# among them: ``x in set(...)`` and ``v > 0.5`` do not depend on either.
CONTROL_KINDS = frozenset({CLOCK, RANDOM, UUID, ENV})

# -- sink tables ------------------------------------------------------------

# Program functions (by qualname) whose every argument is consensus-visible.
SINK_QUALNAMES = {
    "repro.util.serialization.canonical_json": "canonical_json",
    "repro.crypto.merkle.merkle_root": "merkle_root",
    "repro.crypto.merkle.MerkleTree.__init__": "MerkleTree",
    "repro.storage.codec.tx_to_doc": "codec.tx_to_doc",
    "repro.storage.codec.block_to_doc": "codec.block_to_doc",
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
# Attribute-call names that are chaincode sinks even when the receiver
# cannot be resolved (every stub flavour shares these names): writes and
# events, and the keys of reads, which enter the endorsed read set.
SINK_METHOD_NAMES = frozenset({
    "put_state", "del_state", "set_event", "get_state", "get_state_by_range",
    "get_state_by_partial_composite_key",
})
# Function *names* that are sinks wherever they live — these names are the
# framework's own conventions, so a module outside the qualname table (a
# test fixture, a future refactor) still gets sink treatment.
SINK_SHORT_NAMES = frozenset({"canonical_json", "merkle_root"})
# What a public method of a ``Chaincode`` subclass returns: ``dispatch``
# calls it through ``getattr`` (invisible to the call graph) and renders the
# result into the response string every endorser signs.
DISPATCH_SINK = "Chaincode.dispatch"

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
# str/bytes/datetime methods whose result is derived from the receiver; on
# an unresolved or external call the result carries the receiver's taint.
# A fixed table, not every method: ``record.to_dict()`` need not emit every
# field of a tainted record.
VALUE_METHODS = frozenset({
    "encode", "decode", "hex", "format", "join", "isoformat", "strftime",
    "timestamp", "date", "lower", "upper", "strip", "replace", "split",
})
# datetime/timedelta/number fields, read off a tainted value.
VALUE_ATTRS = frozenset({
    "year", "month", "day", "hour", "minute", "second", "microsecond",
    "days", "seconds", "real", "imag",
})
# Methods that store their arguments into the receiver.
MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "appendleft", "extendleft",
})
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
# Function analyses, per function in the program, before the fixed point
# is declared divergent. Summaries only grow and traces only shorten, so a
# sound run stops far below this; reaching it is a bug, and it is reported
# instead of a partial answer.
_MAX_VISITS_PER_FUNCTION = 64


@dataclass(frozen=True)
class Taint:
    """One taint fact: a kind plus the witness chain that produced it."""

    kind: object                  # a KIND_RULES key, or ("param", i)
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
    control: bool = False         # reached through a branch on it only


@dataclass
class Summary:
    ret: dict[str, tuple[str, ...]] = field(default_factory=dict)   # kind -> trace
    # ("param", i): parameter i flows to the return; ("ctrl", i): the
    # return depends on a branch on it.
    param_ret: set[tuple[str, int]] = field(default_factory=set)
    param_sink: dict[int, tuple[SinkHit, ...]] = field(default_factory=dict)
    raises: dict[str, tuple[str, ...]] = field(default_factory=dict)  # may raise on a branch on it

    def signature(self) -> tuple:
        return (
            tuple(sorted((k, v) for k, v in self.ret.items())),
            tuple(sorted(self.param_ret)),
            tuple(sorted((i, hits) for i, hits in self.param_sink.items())),
            tuple(sorted(self.raises.items())),
        )


def _loc(fn: FunctionInfo, node: ast.AST) -> str:
    return f"{fn.path}:{getattr(node, 'lineno', fn.line)}"


def _through(kind: object, control: bool) -> object | None:
    """*kind* as passed into a callee; a callee that only branches on the
    value passes on the control kinds alone."""
    if not control:
        return kind
    if isinstance(kind, tuple):
        return ("ctrl", kind[1])
    return kind if kind in CONTROL_KINDS else None


def _shortest(taints: set[Taint]) -> dict[str, tuple[str, ...]]:
    """Kind -> its shortest witness trace, ties broken lexically."""
    out: dict[str, tuple[str, ...]] = {}
    for t in sorted(taints, key=lambda t: (len(t.trace), t.trace)):
        if isinstance(t.kind, str):
            out.setdefault(t.kind, t.trace)
    return out


def _exits(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


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
        self.raises: set[Taint] = set()
        self.param_sink: dict[int, set[SinkHit]] = {}
        # Taint of the enclosing if/while tests (CONTROL_KINDS only).
        self.control: set[Taint] = set()
        self.dispatched = analysis.is_dispatched(fn)
        for i, p in enumerate(fn.params):
            self.env[p] = {Taint(("param", i))}

    # -- expression taint --------------------------------------------------

    def taint_of(self, node: ast.expr) -> set[Taint]:
        if isinstance(node, ast.Name):
            if node.id in self.env or node.id in self.fn.locals:
                return set(self.env.get(node.id, ()))
            return self._global_read(
                self.resolver.aliases.get(node.id, f"{self.fn.module}.{node.id}"), node
            )
        if isinstance(node, ast.Attribute):
            # self.field reads pick up class-field taint.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and self.fn.class_qualname is not None
            ):
                return self._field_read(
                    self.fn.class_qualname, node.attr, node, f"field self.{node.attr}"
                )
            dotted = _dotted_name(node, self.resolver.aliases)
            if dotted in ENV_ATTRS:
                return {Taint(ENV, (f"{_loc(self.fn, node)}: read of {dotted}",))}
            out = self._global_read(dotted, node) if dotted else set()
            if node.attr in VALUE_ATTRS:
                out |= self.taint_of(node.value)
            return out
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
            # The truth of a comparison depends on its operands' values, not
            # on set order or float presentation.
            operands = set().union(*map(self.taint_of, [node.left, *node.comparators]))
            return {t for t in operands if t.kind not in (SETORDER, FLOATFMT)}
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return set()

    def _field_read(self, owner: str, attr: str, node: ast.AST, shown: str) -> set[Taint]:
        got = self.analysis.field_taint_of(owner, attr, reader=self.fn.qualname)
        return {
            Taint(kind, trace).extend(
                f"{_loc(self.fn, node)}: read of {shown} in {self.fn.name}()"
            )
            for kind, trace in got.items()
        }

    def _global_read(self, dotted: str, node: ast.AST) -> set[Taint]:
        """A module global or class attribute, as bound by its body."""
        for owner, _, attr in (dotted.rpartition("."),
                               f"{self.fn.module}.{dotted}".rpartition(".")):
            if owner in self.program.modules or owner in self.program.classes:
                return self._field_read(owner, attr, node, dotted)
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

    def _arg_exprs(self, call: ast.Call, callee: Callee | None) -> list[tuple[int, ast.expr]]:
        """Positional args with their callee-parameter indexes; keywords get
        index -1 (still sink-checked, never param-mapped)."""
        skip = 0
        fn = self.program.functions.get(callee.target) if callee else None
        if fn is not None and fn.class_qualname is not None and fn.binds is None:
            decorators = {_dotted_name(d, {}) for d in fn.node.decorator_list}
            if "classmethod" in decorators or fn.name == "__init__":
                skip = 1
            elif "staticmethod" not in decorators and isinstance(call.func, ast.Attribute):
                # obj.m(a) binds self; Class.m(obj, a) passes it.
                recv = _dotted_name(call.func.value, self.resolver.aliases)
                skip = int(recv not in self.program.classes
                           and f"{self.fn.module}.{recv}" not in self.program.classes)
        out = [(i + skip, a) for i, a in enumerate(call.args)]
        out.extend((-1, kw.value) for kw in call.keywords)
        return out

    def call_taint(self, call: ast.Call) -> set[Taint]:
        callee = self.resolver.resolve_callable(call.func)
        arg_taints: dict[int, set[Taint]] = {}
        all_arg_taint: set[Taint] = set()
        for idx, expr in self._arg_exprs(call, callee):
            t = self.taint_of(expr)
            if t:
                arg_taints[idx] = t
                all_arg_taint |= t

        result: set[Taint] = set()
        site = _loc(self.fn, call)
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS and all_arg_taint:
            self._taint_in_place(func.value, all_arg_taint, call)

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
                got = {Taint(RANDOM, (f"{site}: call to {name}() [rng]",))}
                if short == "shuffle" and call.args:   # reorders its argument
                    self._taint_in_place(call.args[0], got, call)
                return got
            if name in UUID_CALLS:
                return {Taint(UUID, (f"{site}: call to {name}() [uuid]",))}
            if name in ENV_CALLS or name.rpartition(".")[0] in ENV_ATTRS:
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
            return all_arg_taint | self._receiver_taint(call)

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
                # A call that may raise on a value decides whether the rest
                # of the block runs.
                for kind, trace in summary.raises.items():
                    t = Taint(kind, trace).extend(f"{site}: {cname}() may raise on the value")
                    self.raises.add(t)
                    self.control.add(t)
                if summary.raises and self.dispatched:
                    self._check_sink(call, DISPATCH_SINK, {})
                for tag, i in summary.param_ret:
                    for t in arg_taints.get(i, ()):
                        kind = _through(t.kind, tag == "ctrl")
                        if kind is not None:
                            result.add(Taint(kind, t.trace).extend(
                                f"{site}: value passes through {cname}()"
                            ))
            # A unique-method fallback may have resolved ``x.hex()``.
            return result | self._receiver_taint(call)

        # Unresolved call: method sinks by name, then conservative merge.
        if isinstance(func, ast.Attribute) and func.attr in SINK_METHOD_NAMES:
            self._check_sink(call, func.attr, arg_taints)
            return set()
        if isinstance(func, ast.Attribute) and func.attr == "shuffle" and call.args:
            self._taint_in_place(call.args[0], self.taint_of(func.value), call)
        return all_arg_taint | self._receiver_taint(call)

    def _receiver_taint(self, call: ast.Call) -> set[Taint]:
        """``x.encode()``, ``dt.isoformat()``: a value method's result carries
        its receiver's taint; a literal ``'{:.2f}'.format`` is a source."""
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in VALUE_METHODS:
            return set()
        out = self.taint_of(func.value)
        if (
            func.attr == "format"
            and isinstance(func.value, ast.Constant)
            and isinstance(func.value.value, str)
            and _format_has_float(func.value.value)
        ):
            out.add(Taint(
                FLOATFMT,
                (f"{_loc(self.fn, call)}: float format spec in str.format()",),
            ))
        return out

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
                    kind = _through(t.kind, hit.control)
                    if kind is None:
                        continue
                    chain = t.trace + (
                        f"{site}: {self.fn.name}() passes tainted value into "
                        f"{cname}()",
                    ) + hit.trace
                    self._record_sink_flow(call, hit.sink, kind, chain)

    def _check_sink(
        self, node: ast.AST, sink_name: str, arg_taints: dict[int, set[Taint]]
    ) -> None:
        site = _loc(self.fn, node)
        for taints in (*arg_taints.values(), self.control):
            for t in taints:
                chain = t.trace + (
                    f"{site}: tainted value reaches {sink_name}() [sink]",
                )
                self._record_sink_flow(node, sink_name, t.kind, chain)

    def _record_sink_flow(
        self, node: ast.AST, sink_name: str, kind: object, chain: tuple[str, ...]
    ) -> None:
        if isinstance(kind, tuple):
            # Taint came from one of our own parameters: contribute to this
            # function's param->sink summary instead of a finding.
            self.param_sink.setdefault(kind[1], set()).add(
                SinkHit(sink=sink_name, trace=chain, control=kind[0] == "ctrl")
            )
            return
        if self.emit and isinstance(kind, str):
            self.analysis.findings.append(FlowFinding.for_rule(
                KIND_RULES[kind], self.fn.path, node.lineno, node.col_offset,
                f"{kind} value flows into {sink_name}()", trace=chain,
            ))

    # -- statements --------------------------------------------------------

    def _publish(self, name: str, taints: set[Taint], at: ast.AST) -> None:
        """A module or class body's binding is a global or class field."""
        real = {t.kind: t.trace for t in taints if isinstance(t.kind, str)}
        if self.fn.binds is not None and real:
            self.analysis.taint_field(self.fn.binds, name, {
                kind: trace + (f"{_loc(self.fn, at)}: bound to {name}",)
                for kind, trace in real.items()
            })

    def _assign_name(self, name: str, taints: set[Taint], is_set: bool, at: ast.AST) -> None:
        if taints:
            self.env[name] = set(taints)
            self._publish(name, taints, at)
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
        self._taint_in_place(node.target, self.taint_of(node.value) | self.control, node)
        self.generic_visit(node)

    def _taint_in_place(self, target: ast.expr, taints: set[Taint], at: ast.AST) -> None:
        """``x += v``, ``x[k] = v``, ``x.append(v)``: *x* keeps its taint
        and gains *taints*."""
        if not taints:
            return
        if isinstance(target, ast.Subscript):
            self._taint_in_place(target.value, taints, at)
        elif isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(taints)
            self._publish(target.id, taints, at)
        elif isinstance(target, ast.Attribute):
            self._bind_field(target, taints, at)

    def _bind_target(
        self, target: ast.expr, taints: set[Taint], is_set: bool, at: ast.AST
    ) -> None:
        taints = taints | self.control   # a guarded binding depends on the test
        if isinstance(target, ast.Name):
            self._assign_name(target.id, taints, is_set, at)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taints, False, at)
        elif isinstance(target, ast.Attribute):
            self._bind_field(target, taints, at)
        elif isinstance(target, ast.Subscript):
            # d[k] = tainted -> the container is tainted.
            self._taint_in_place(target, taints, at)

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
        outer = self.control
        self.generic_visit(node)
        self.control = outer   # a `continue` guard ends with the loop body

    def _visit_guarded(self, node: ast.If | ast.While) -> None:
        site = _loc(self.fn, node)
        guard = set()
        for t in self.taint_of(node.test):
            kind = _through(t.kind, True)
            if kind is not None:
                guard.add(Taint(kind, t.trace).extend(
                    f"{site}: {self.fn.name}() branches on the value"))
        outer, start = self.control, {k: set(v) for k, v in self.env.items()}
        self.control = outer | guard
        for stmt in node.body:
            self.visit(stmt)
        body_env, self.env = self.env, start
        for stmt in node.orelse:
            self.visit(stmt)
        # Either branch may have run: names keep the taint of both.
        for name, taints in body_env.items():
            self.env.setdefault(name, set()).update(taints)
        # After a body that always leaves, the rest of the block runs only
        # on the other outcome of the test.
        exits = isinstance(node, ast.If) and (_exits(node.body) or _exits(node.orelse))
        self.control = outer | guard if exits else outer

    visit_If = _visit_guarded
    visit_While = _visit_guarded

    def visit_Raise(self, node: ast.Raise) -> None:
        # Whether a chaincode function fails is part of its endorsement.
        if node.exc is not None:
            self.taint_of(node.exc)
        self.raises |= self.control
        if self.dispatched:
            self._check_sink(node, DISPATCH_SINK, {})
        self.generic_visit(node)

    def _skip(self, node: ast.AST) -> None:
        """Nested defs and classes are separate functions."""

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _skip

    def visit_Return(self, node: ast.Return) -> None:
        taints = set(self.control)
        if node.value is not None:
            taints |= self.taint_of(node.value)
        self.ret |= taints
        if self.dispatched:
            real = {t for t in taints if isinstance(t.kind, str)}
            self._check_sink(node, DISPATCH_SINK, {0: real})
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
        summary = Summary(ret=_shortest(self.ret), raises=_shortest(self.raises))
        summary.param_ret = {t.kind for t in self.ret if isinstance(t.kind, tuple)}
        for i, hits in self.param_sink.items():
            summary.param_sink[i] = tuple(sorted(hits, key=lambda h: (h.sink, h.trace)))
        return summary


class TaintAnalysis:
    """Fixed-point driver over the program's functions."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.summaries: dict[str, Summary] = {}
        self.field_taints: dict[tuple[str, str], dict[str, tuple[str, ...]]] = {}
        self.field_readers: dict[str, set[str]] = {}
        self.findings: list[FlowFinding] = []
        self._stale: set[str] = set()   # readers of a field that just grew

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

    def _ancestors(self, class_qualname: str) -> list[str]:
        """*class_qualname* and its declared bases, breadth first; a base
        outside the program is listed by its dotted name."""
        seen: list[str] = []
        queue = [class_qualname]
        while queue:
            cq = queue.pop(0)
            if cq in seen:
                continue
            seen.append(cq)
            info = self.program.classes.get(cq)
            if info is not None:
                queue.extend(info.bases)
        return seen

    def is_dispatched(self, fn: FunctionInfo) -> bool:
        """A public method of a ``Chaincode`` subclass: ``dispatch`` may
        invoke it and sign what it returns."""
        cls = fn.class_qualname
        return (
            cls is not None
            and fn.binds is None
            and fn.qualname == f"{cls}.{fn.name}"
            and not fn.name.startswith("_")
            and any(a.rsplit(".", 1)[-1] == "Chaincode" for a in self._ancestors(cls)[1:])
        )

    def field_taint_of(
        self, class_qualname: str, attr: str, reader: str
    ) -> dict[str, tuple[str, ...]]:
        # Walk declared bases so a field tainted in a parent class is seen
        # through subclass reads.
        self.field_readers.setdefault(attr, set()).add(reader)
        for cq in self._ancestors(class_qualname):
            got = self.field_taints.get((cq, attr))
            if got:
                return got
        return {}

    def taint_field(
        self, class_qualname: str, attr: str, kinds: dict[str, tuple[str, ...]]
    ) -> None:
        slot = self.field_taints.setdefault((class_qualname, attr), {})
        for kind, trace in kinds.items():
            if kind not in slot:
                slot[kind] = trace
                self._stale |= self.field_readers.get(attr, set())

    # -- driver ------------------------------------------------------------

    def run(self) -> list[FlowFinding]:
        functions = self.program.functions
        callers: dict[str, set[str]] = {}
        for caller, outs in self.program.edges.items():
            for callee in outs:
                callers.setdefault(callee, set()).add(caller)
        # Worklist to a fixed point: a function is re-analysed whenever the
        # summary of a callee, or a field it reads, has grown.
        queue = deque(sorted(functions))
        queued = set(queue)
        budget = _MAX_VISITS_PER_FUNCTION * max(len(functions), 1)
        empty = Summary().signature()
        while queue:
            budget -= 1
            if budget < 0:
                raise AnalysisError("taint analysis did not reach a fixed point")
            qual = queue.popleft()
            queued.discard(qual)
            summary = _FunctionTaint(self, functions[qual]).run()
            prev = self.summaries.get(qual)
            if summary.signature() != (prev.signature() if prev else empty):
                self._stale |= callers.get(qual, set())
            self.summaries[qual] = summary
            for stale in sorted(self._stale - queued):
                queue.append(stale)
                queued.add(stale)
            self._stale = set()
        # Emission pass with converged summaries.
        self.findings = []
        for qual in sorted(functions):
            _FunctionTaint(self, functions[qual], emit=True).run()
        # Deduplicate: one finding per (rule, site, sink) with the shortest
        # witness chain.
        best: dict[tuple, FlowFinding] = {}
        for f in self.findings:
            key = (f.rule_id, f.path, f.line, f.col, f.message)
            old = best.get(key)
            if old is None or (len(f.trace), f.trace) < (len(old.trace), old.trace):
                best[key] = f
        return sorted(best.values(), key=lambda f: (f.path, f.line, f.col, f.rule_id, f.message))


def analyze_taint(program: Program) -> list[FlowFinding]:
    return TaintAnalysis(program).run()
