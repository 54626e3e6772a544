"""Declarative scenario specifications: the one construction path.

The portfolio driver sweeps topology x routing x switching scenarios, yet
historically every scenario was hand-built Python: ``hermes``, ``ringnoc``
and ``vcnoc`` each exposed bespoke ``build_*`` functions and the sweep
lists called them directly, so growing the sweep meant editing code in
three places and shipping fully pickled instances to pool workers.  This
module replaces that with three declarative layers:

* :class:`ScenarioSpec` -- a frozen, JSON-serialisable description of one
  scenario (topology kind + dims, routing policy, switching discipline,
  VC count, escape style, route-commit policy, buffer/injection/measure
  options) with an exact ``to_dict()``/``from_dict()`` round trip.  Specs
  are hashable, picklable and *cheap*: a portfolio worker receives specs
  and builds each one right before deciding it.
* :class:`SpecRegistry` -- named :class:`InstanceBuilder` entries, one per
  topology kind.  The five shipped kinds are registered at the end of this
  module, with their parameter spaces and scenario namers; each builder is
  a ``"module:function"`` path into its instantiation package
  (:mod:`repro.hermes`, :mod:`repro.ringnoc`, :mod:`repro.vcnoc`), imported
  on the first build.  Expanding, naming and hashing specs therefore loads
  no instantiation code, and ``ScenarioSpec.build()`` is the single
  construction path every consumer (portfolio, CLI, benchmarks, future
  workloads) goes through.
* :func:`expand_matrix` -- a deterministic generator turning parameter
  grids (``"mesh:2..4x2..4, routing=[xy,yx], switching=wormhole"``) into
  ordered scenario matrices.  Same grid, same spec list -- always.

The matrix grammar (see ``docs/scenarios.md`` for the full reference)::

    matrix  :=  term (';' term)*
    term    :=  kind ':' dims (',' param)*
    dims    :=  dimterm ('|' dimterm)*        -- alternatives, in order
    dimterm :=  range ('x' range)*            -- per-axis, cross product
    range   :=  INT | INT '..' INT            -- inclusive, ascending
    param   :=  key '=' values                -- routing=, switching=,
                                              -- vcs=, buffers=, policy=,
                                              -- escape=, faults=, seed=,
                                              -- group=
    values  :=  value | INT '..' INT | '[' value (',' value)* ']'

Expansion order is pinned: terms left to right; within a term dims vary
outermost (alternatives in order, per-axis ranges ascending, leftmost axis
slowest), then ``routing``, ``switching``, ``vcs``, ``buffers``,
``policy``, ``escape``, ``faults`` and ``seed`` values in declaration
order, innermost last.  ``faults``/``seed`` select the deterministic
fault model of :mod:`repro.network.faults` (``seed`` is ignored -- and
normalised to 0 -- when ``faults`` is 0, so fault-free rows of a sweep
collapse onto the healthy construction path).
"""

from __future__ import annotations

import importlib
import itertools
import re
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import SpecificationError

#: Switching-discipline tokens accepted by port-level scenario kinds.
SWITCHING_TOKENS = ("wormhole", "vct", "saf")

#: The ``name()`` of each switching token's policy (scenario names use it).
SWITCHING_NAMES = {"wormhole": "Swh", "vct": "Svct", "saf": "Ssaf"}

#: Routing tokens of the ``mesh`` kind (see
#: :func:`repro.hermes.instantiation.build_mesh_from_spec`).
MESH_ROUTING_TOKENS = ("xy", "yx", "west-first", "north-last",
                       "negative-first", "odd-even", "adaptive", "zigzag")

#: Routing tokens of the ``ring`` kind.
RING_ROUTING_TOKENS = ("chain", "clockwise")

#: Route-commit policies of the VC escape relation (mirrors
#: :data:`repro.routing.escape.ROUTE_POLICIES`).
ROUTE_POLICY_TOKENS = ("escape", "adaptive", "spread")

#: Injection-method tokens (the paper's immediate injection only, today).
INJECTION_TOKENS = ("iid",)

#: Termination-measure tokens (see :mod:`repro.core.measure`).
MEASURE_TOKENS = ("flit-hop", "pending", "route-length")


def resolve_switching(token: Optional[str]):
    """The switching policy named by ``token`` (``None`` = wormhole)."""
    from repro.switching.store_and_forward import StoreAndForwardSwitching
    from repro.switching.virtual_cut_through import VirtualCutThroughSwitching
    from repro.switching.wormhole import WormholeSwitching

    policies = {"wormhole": WormholeSwitching,
                "vct": VirtualCutThroughSwitching,
                "saf": StoreAndForwardSwitching}
    if token is None:
        token = "wormhole"
    if token not in policies:
        raise SpecificationError(
            f"unknown switching token {token!r}; "
            f"expected one of {SWITCHING_TOKENS}")
    return policies[token]()


def resolve_measure(token: str):
    """The termination measure named by ``token``."""
    from repro.core.measure import (
        flit_hop_measure,
        pending_travel_measure,
        route_length_measure,
    )

    measures = {"flit-hop": flit_hop_measure,
                "pending": pending_travel_measure,
                "route-length": route_length_measure}
    if token not in measures:
        raise SpecificationError(
            f"unknown measure token {token!r}; "
            f"expected one of {MEASURE_TOKENS}")
    return measures[token]


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, JSON-serialisable description of one scenario.

    ``kind`` names a :class:`SpecRegistry` builder entry (``"mesh"``,
    ``"ring"``, ``"vc-mesh"``, ``"vc-torus"``, ``"vc-ring"``) and ``dims``
    are the topology dimensions that entry expects (``(width, height)``
    for 2D kinds, ``(size,)`` for rings).  The remaining fields select the
    constituents; ``None`` means "the kind's default" and is filled in by
    :meth:`normalized`.  Specs are frozen and hashable, and they contain
    only primitives, so they pickle cheaply to portfolio worker
    processes.
    """

    kind: str
    dims: Tuple[int, ...]
    #: Routing-policy token of the kind (e.g. ``"xy"``, ``"adaptive"``,
    #: ``"chain"``); ``None`` selects the kind's default.
    routing: Optional[str] = None
    #: Switching-discipline token (:data:`SWITCHING_TOKENS`); ``None``
    #: selects the kind's default.  VC kinds fix their own switching.
    switching: Optional[str] = None
    #: Virtual channels per cardinal port (1 = the paper's port model).
    num_vcs: int = 1
    #: Escape-class style of a VC kind (``"xy"`` or ``"dateline"``);
    #: ``None`` selects the kind's natural style.
    escape: Optional[str] = None
    #: How concrete simulation routes are committed on a VC relation.
    route_policy: str = "escape"
    #: 1-flit buffers per port.
    buffers: int = 2
    injection: str = "iid"
    measure: str = "flit-hop"
    #: Number of injected faults (dead links/routers); 0 = healthy fabric.
    faults: int = 0
    #: Seed of the deterministic fault draw (ignored when ``faults`` is 0).
    fault_seed: int = 0
    #: Explicit scenario-name override (``None``: derived from the spec).
    label: Optional[str] = None
    #: Explicit session-group override (``None``: derived from the spec).
    group: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    # -- serialisation ------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The exact JSON-serialisable image of this spec (all fields)."""
        return {
            "kind": self.kind,
            "dims": list(self.dims),
            "routing": self.routing,
            "switching": self.switching,
            "num_vcs": self.num_vcs,
            "escape": self.escape,
            "route_policy": self.route_policy,
            "buffers": self.buffers,
            "injection": self.injection,
            "measure": self.measure,
            "faults": self.faults,
            "fault_seed": self.fault_seed,
            "label": self.label,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (exact round trip)."""
        if not isinstance(payload, dict):
            raise SpecificationError(
                f"a spec dict is required, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise SpecificationError(
                f"unknown spec fields {sorted(unknown)}; known: "
                f"{sorted(known)}")
        for required in ("kind", "dims"):
            if required not in payload:
                raise SpecificationError(f"spec dict misses {required!r}")
        data = dict(payload)
        data["dims"] = tuple(data["dims"])
        return cls(**data)

    def canonical_hash(self) -> str:
        """The canonical content hash of this spec (a hex SHA-256).

        Computed over the *normalized* spec's sorted-key JSON image, so
        two spellings of the same scenario (defaults written out or left
        implicit) hash identically.  Together with
        ``repro.__engine_fingerprint__`` this keys the content-addressed
        verdict store (:mod:`repro.core.store`): same hash + same engine
        = the verdict may be reused verbatim.
        """
        import hashlib
        import json

        payload = json.dumps(self.normalized().to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- identity -----------------------------------------------------------------
    def dims_text(self) -> str:
        return "x".join(str(d) for d in self.dims)

    def group_key(self) -> str:
        """The portfolio session group this scenario belongs to.

        Scenarios of one group share one cross-check session, so
        the default groups by topology kind and dimensions -- every VC
        count of one topology lands in one group (their channel universes
        nest) and shard assignment can stay group-stable.
        """
        if self.group is not None:
            return self.group
        return f"{self.kind}-{self.dims_text()}"

    def scenario_name(self) -> str:
        """The display name of this scenario (stable across sessions)."""
        if self.label is not None:
            return self.label
        return spec_registry().entry(self.kind).name_for(self.normalized())

    # -- construction -------------------------------------------------------------
    def normalized(self) -> "ScenarioSpec":
        """This spec with the kind's defaults filled in (and validated)."""
        entry = spec_registry().entry(self.kind)
        spec = entry.normalize(self)
        entry.validate(spec)
        return spec

    def build(self):
        """Construct the :class:`~repro.core.instance.NoCInstance`.

        The single construction path: dispatches through the registered
        :class:`InstanceBuilder` of :attr:`kind`.  Every call builds
        afresh; nothing is memoised.
        """
        spec = self.normalized()
        return spec_registry().entry(spec.kind).build(spec)


def fault_suffix(spec: ScenarioSpec) -> str:
    """The scenario-name suffix of a fault-injected spec (empty if healthy).

    Used by every namer so fault variants of one design get distinct,
    stable scenario names (e.g. ``.../f2s1``).
    """
    if spec.faults <= 0:
        return ""
    return f"/f{spec.faults}s{spec.fault_seed}"


#: An :class:`InstanceBuilder` turns a normalized spec into an instance.
#: A registry entry holds one directly or as a ``"module:function"`` path.
InstanceBuilder = Callable[[ScenarioSpec], object]


@dataclass(frozen=True)
class BuilderEntry:
    """One registered scenario kind: its builder plus its parameter space."""

    kind: str
    builder: Union[InstanceBuilder, str]
    description: str
    #: Number of topology dimensions the kind expects (2 for meshes/tori,
    #: 1 for rings).
    dim_count: int
    #: Smallest size of every dimension the builder accepts.
    min_size: int = 1
    #: Supported routing tokens (empty: the kind has a fixed relation and
    #: accepts no routing token).
    routings: Tuple[str, ...] = ()
    default_routing: Optional[str] = None
    #: Supported switching tokens (empty: fixed by the kind).
    switchings: Tuple[str, ...] = ()
    default_switching: Optional[str] = None
    #: Does the kind model virtual channels (``num_vcs`` may exceed 1)?
    supports_vcs: bool = False
    #: The escape style of a VC kind (``None`` for port-level kinds).
    escape_style: Optional[str] = None
    #: Does the kind accept ``faults > 0`` (a fault-aware builder path)?
    supports_faults: bool = False
    #: Scenario-name deriver; receives a normalized spec.
    namer: Optional[Callable[[ScenarioSpec], str]] = None

    def normalize(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Fill the kind's defaults into ``spec`` (idempotent).

        Also canonicalises underscore routing aliases (``west_first`` ->
        ``west-first``) and normalises the fault seed of a healthy spec to
        0, so ``faults=0, seed=0..n`` sweep rows collapse onto one spec.
        """
        updates: Dict[str, object] = {}
        if spec.routing is None and self.default_routing is not None:
            updates["routing"] = self.default_routing
        elif (spec.routing is not None and spec.routing not in self.routings
                and spec.routing.replace("_", "-") in self.routings):
            updates["routing"] = spec.routing.replace("_", "-")
        if spec.switching is None and self.default_switching is not None:
            updates["switching"] = self.default_switching
        if spec.escape is None and self.escape_style is not None:
            updates["escape"] = self.escape_style
        if spec.faults == 0 and spec.fault_seed != 0:
            updates["fault_seed"] = 0
        return replace(spec, **updates) if updates else spec

    def validate(self, spec: ScenarioSpec) -> None:
        """Raise :class:`SpecificationError` on an out-of-space spec."""
        def fail(message: str) -> None:
            raise SpecificationError(f"spec {spec.kind}:{spec.dims_text()} "
                                     f"invalid: {message}")

        if len(spec.dims) != self.dim_count:
            fail(f"kind {self.kind!r} expects {self.dim_count} "
                 f"dimension(s), got {len(spec.dims)}")
        if any(d < 1 for d in spec.dims):
            fail("dimensions must be positive")
        if any(d < self.min_size for d in spec.dims):
            fail(f"kind {self.kind!r} needs every dimension at least "
                 f"{self.min_size}")
        if self.routings and spec.routing not in self.routings:
            fail(f"routing {spec.routing!r} not supported; expected one of "
                 f"{list(self.routings)}")
        if not self.routings and spec.routing is not None:
            fail(f"kind {self.kind!r} has a fixed routing relation and "
                 f"accepts no routing token")
        if self.switchings and spec.switching not in self.switchings:
            fail(f"switching {spec.switching!r} not supported; expected one "
                 f"of {list(self.switchings)}")
        if not self.switchings and spec.switching is not None:
            fail(f"kind {self.kind!r} fixes its switching policy")
        if spec.num_vcs < 1:
            fail("num_vcs must be at least 1")
        if not self.supports_vcs and spec.num_vcs != 1:
            fail(f"kind {self.kind!r} is a port-level model; use a vc-* "
                 f"kind for num_vcs > 1")
        if self.escape_style is None and spec.escape is not None:
            fail(f"kind {self.kind!r} has no escape class")
        if (self.escape_style is not None and spec.escape is not None
                and spec.escape != self.escape_style):
            fail(f"kind {self.kind!r} uses the {self.escape_style!r} escape "
                 f"style, not {spec.escape!r}")
        if spec.route_policy not in ROUTE_POLICY_TOKENS:
            fail(f"route_policy must be one of {ROUTE_POLICY_TOKENS}")
        if spec.buffers < 1:
            fail("buffers must be at least 1")
        if spec.injection not in INJECTION_TOKENS:
            fail(f"injection must be one of {INJECTION_TOKENS}")
        if spec.measure not in MEASURE_TOKENS:
            fail(f"measure must be one of {MEASURE_TOKENS}")
        if spec.faults < 0:
            fail("faults must be non-negative")
        if spec.fault_seed < 0:
            fail("fault seed must be non-negative")
        if spec.faults > 0 and not self.supports_faults:
            fail(f"kind {self.kind!r} has no fault-aware builder path")

    def build(self, spec: ScenarioSpec):
        """Construct a normalized ``spec`` with this kind's builder.

        A ``"module:function"`` builder is imported here, on first use.
        """
        builder = self.builder
        if isinstance(builder, str):
            module, _, name = builder.partition(":")
            builder = getattr(importlib.import_module(module), name)
        return builder(spec)

    def name_for(self, spec: ScenarioSpec) -> str:
        if self.namer is not None:
            return self.namer(spec)
        parts = [spec.group_key()]
        if spec.routing:
            parts.append(f"R{spec.routing}")
        if spec.num_vcs > 1:
            parts.append(f"{spec.num_vcs}vc")
        return "/".join(parts) + fault_suffix(spec)


class SpecRegistry:
    """The named builder entries, keyed by scenario kind.

    One registry serves the process (:func:`spec_registry`); the shipped
    kinds are registered when this module loads, new kinds via
    :func:`register_builder`.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, BuilderEntry] = {}

    def register(self, entry: BuilderEntry) -> BuilderEntry:
        if entry.kind in self._entries:
            raise SpecificationError(
                f"scenario kind {entry.kind!r} is already registered")
        self._entries[entry.kind] = entry
        return entry

    def entry(self, kind: str) -> BuilderEntry:
        try:
            return self._entries[kind]
        except KeyError:
            raise SpecificationError(
                f"unknown scenario kind {kind!r}; registered kinds: "
                f"{sorted(self._entries)}") from None

    def kinds(self) -> List[str]:
        return list(self._entries)

    def entries(self) -> List[BuilderEntry]:
        return list(self._entries.values())


_REGISTRY = SpecRegistry()


def register_builder(kind: str, builder: Union[InstanceBuilder, str], *,
                     description: str = "",
                     dim_count: int = 2,
                     min_size: int = 1,
                     routings: Sequence[str] = (),
                     default_routing: Optional[str] = None,
                     switchings: Sequence[str] = (),
                     default_switching: Optional[str] = None,
                     supports_vcs: bool = False,
                     escape_style: Optional[str] = None,
                     supports_faults: bool = False,
                     namer: Optional[Callable[[ScenarioSpec], str]] = None,
                     ) -> BuilderEntry:
    """Register an :class:`InstanceBuilder` for a scenario kind.

    ``builder`` is the builder itself or its ``"module:function"`` path,
    imported on the first build.  The entry describes the kind's parameter
    space so matrix expansion can validate grids eagerly and ``repro
    scenarios list`` can document what exists.
    """
    return _REGISTRY.register(BuilderEntry(
        kind=kind, builder=builder, description=description,
        dim_count=dim_count, min_size=min_size, routings=tuple(routings),
        default_routing=default_routing, switchings=tuple(switchings),
        default_switching=default_switching, supports_vcs=supports_vcs,
        escape_style=escape_style, supports_faults=supports_faults,
        namer=namer))


def spec_registry() -> SpecRegistry:
    """The process-wide registry, with every shipped kind registered."""
    return _REGISTRY


def _mesh_name(spec: ScenarioSpec) -> str:
    return (f"{spec.group_key()}/R{spec.routing}/"
            f"{SWITCHING_NAMES[spec.switching]}{fault_suffix(spec)}")


def _ring_name(spec: ScenarioSpec) -> str:
    return f"{spec.group_key()}/{spec.routing}{fault_suffix(spec)}"


def _vc_namer(relation: str) -> Callable[[ScenarioSpec], str]:
    """The namer of a VC kind whose relation is called ``relation``."""
    def name(spec: ScenarioSpec) -> str:
        return (f"{spec.group_key()}/{relation}/{spec.num_vcs}vc"
                f"{fault_suffix(spec)}")
    return name


register_builder(
    "mesh", "repro.hermes.instantiation:build_mesh_from_spec",
    description="HERMES 2D mesh (port-level model, paper Section V)",
    dim_count=2,
    routings=MESH_ROUTING_TOKENS,
    default_routing="xy",
    switchings=SWITCHING_TOKENS,
    default_switching="wormhole",
    supports_faults=True,
    namer=_mesh_name,
)

register_builder(
    "ring", "repro.ringnoc.instantiation:build_ring_from_spec",
    description="bidirectional ring (deadlock-free chain vs. deadlock-prone "
                "clockwise routing)",
    dim_count=1,
    min_size=2,
    routings=RING_ROUTING_TOKENS,
    default_routing="chain",
    switchings=("wormhole",),
    default_switching="wormhole",
    supports_faults=True,
    namer=_ring_name,
)

register_builder(
    "vc-mesh", "repro.vcnoc.instantiation:build_vc_mesh_from_spec",
    description="2D mesh at VC granularity: fully-adaptive class + one XY "
                "escape VC",
    dim_count=2,
    supports_vcs=True,
    supports_faults=True,
    escape_style="xy",
    namer=_vc_namer("Radaptive+esc-xy"),
)

register_builder(
    "vc-torus", "repro.vcnoc.instantiation:build_vc_torus_from_spec",
    description="2D torus at VC granularity: dimension-order routing with a "
                "dateline escape pair (+ adaptive class from 3 VCs)",
    dim_count=2,
    min_size=2,
    supports_vcs=True,
    supports_faults=True,
    escape_style="dateline",
    namer=_vc_namer("Rxy-torus+esc-dateline"),
)

register_builder(
    "vc-ring", "repro.vcnoc.instantiation:build_vc_ring_from_spec",
    description="bidirectional ring at VC granularity: shortest-path routing "
                "with a dateline escape pair",
    dim_count=1,
    min_size=2,
    supports_vcs=True,
    supports_faults=True,
    escape_style="dateline",
    namer=_vc_namer("Rshortest-ring+esc-dateline"),
)


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^\s*(?P<kind>[A-Za-z][A-Za-z0-9_-]*)\s*:\s*"
                      r"(?P<rest>\S.*)$")
_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")

#: Parameter keys of the matrix grammar, in expansion-nesting order
#: (``routing`` varies slowest after dims, ``seed`` fastest).
_PARAM_KEYS = ("routing", "switching", "vcs", "buffers", "policy", "escape",
               "faults", "seed")
_INT_KEYS = frozenset({"vcs", "buffers", "faults", "seed"})


def _split_top_level(text: str, separator: str) -> List[str]:
    """Split on ``separator`` outside ``[...]`` brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
            if depth < 0:
                raise SpecificationError(
                    f"unbalanced ']' in matrix fragment {text!r}")
        if char == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SpecificationError(
            f"unbalanced '[' in matrix fragment {text!r}")
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _expand_range(text: str, *, context: str) -> List[int]:
    match = _RANGE_RE.match(text)
    if match:
        low, high = int(match.group(1)), int(match.group(2))
        if low > high:
            raise SpecificationError(
                f"empty range {text!r} in {context}: {low} > {high}")
        return list(range(low, high + 1))
    if text.isdigit():
        return [int(text)]
    raise SpecificationError(
        f"expected an integer or INT..INT range in {context}, got {text!r}")


def _expand_dims(text: str, *, context: str) -> List[Tuple[int, ...]]:
    """``"2..3x2..3|5x5"`` -> the ordered dimension tuples."""
    dims: List[Tuple[int, ...]] = []
    for alternative in text.split("|"):
        alternative = alternative.strip()
        if not alternative:
            raise SpecificationError(f"empty dims alternative in {context}")
        axes = [_expand_range(axis.strip(), context=context)
                for axis in alternative.split("x")]
        dims.extend(itertools.product(*axes))
    return dims


def _parse_values(key: str, text: str, *, context: str) -> List[object]:
    if text.startswith("["):
        if not text.endswith("]"):
            raise SpecificationError(
                f"unterminated value list for {key!r} in {context}")
        tokens = [token.strip() for token in text[1:-1].split(",")]
        tokens = [token for token in tokens if token]
        if not tokens:
            raise SpecificationError(
                f"empty value list for {key!r} in {context}")
    elif key in _INT_KEYS and (_RANGE_RE.match(text) or text.isdigit()):
        return list(_expand_range(text, context=context))
    else:
        tokens = [text]
    if key in _INT_KEYS:
        values: List[object] = []
        for token in tokens:
            values.extend(_expand_range(token, context=context))
        return values
    return list(tokens)


def _expand_term(term: str) -> List[ScenarioSpec]:
    match = _TERM_RE.match(term)
    if not match:
        raise SpecificationError(
            f"matrix term {term!r} does not match 'kind: dims, key=value, "
            f"...'")
    kind = match.group("kind")
    parts = _split_top_level(match.group("rest"), ",")
    if not parts:
        raise SpecificationError(f"matrix term {term!r} misses dimensions")
    dims_list = _expand_dims(parts[0], context=f"term {term!r}")

    params: Dict[str, List[object]] = {}
    group: Optional[str] = None
    for part in parts[1:]:
        key, equals, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not equals or not value:
            raise SpecificationError(
                f"expected key=value in matrix term {term!r}, got {part!r}")
        if key == "group":
            group = value
            continue
        if key not in _PARAM_KEYS:
            raise SpecificationError(
                f"unknown matrix key {key!r} in term {term!r}; known keys: "
                f"{list(_PARAM_KEYS) + ['group']}")
        if key in params:
            raise SpecificationError(
                f"duplicate matrix key {key!r} in term {term!r}")
        params[key] = _parse_values(key, value, context=f"term {term!r}")

    registry = spec_registry()
    entry = registry.entry(kind)
    specs: List[ScenarioSpec] = []
    axes = [params.get(key, [None]) for key in _PARAM_KEYS]
    for dims in dims_list:
        for routing, switching, vcs, buffers, policy, escape, faults, seed \
                in itertools.product(*axes):
            spec = ScenarioSpec(
                kind=kind, dims=dims, routing=routing, switching=switching,
                num_vcs=1 if vcs is None else vcs, escape=escape,
                route_policy="escape" if policy is None else policy,
                buffers=2 if buffers is None else buffers,
                faults=0 if faults is None else faults,
                fault_seed=0 if seed is None else seed, group=group)
            spec = entry.normalize(spec)
            entry.validate(spec)
            specs.append(spec)
    return specs


def expand_matrix(matrix: Union[str, Iterable[str]]) -> List[ScenarioSpec]:
    """Expand a matrix expression into its ordered, validated spec list.

    ``matrix`` is one expression or a sequence of expressions; each may
    hold several ``;``-separated terms.  Expansion is deterministic: the
    same grid always yields the same specs in the same order (terms left
    to right, dims outermost, then routing / switching / vcs / buffers /
    policy / escape / faults / seed in declaration order).  Invalid grids
    -- unknown
    kinds, out-of-space tokens, malformed ranges -- raise
    :class:`~repro.core.errors.SpecificationError` eagerly, before
    anything is built.
    """
    sources = [matrix] if isinstance(matrix, str) else list(matrix)
    specs: List[ScenarioSpec] = []
    for source in sources:
        for term in _split_top_level(source, ";"):
            specs.extend(_expand_term(term))
    return specs
