"""Nothing in ``src/repro`` that only tests reach: no name, no option.

The first test walks ``src/repro`` with ``ast`` and lists the public
functions, classes and methods that no file outside ``tests/``
references. The callers are the files under ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` and ``tools/``. A re-export in an
``__init__.py`` or an ``__all__`` entry is not a use.

A name may stay only if a test uses it as the oracle for a paper or
modem claim, or to drive behaviour that stays (deleting it would only
move its code into the tests). Those names are listed in ``KEPT`` with
their reasons; anything else that appears is code to delete, with the
tests that check only it.

References are matched by name. A method counts as referenced when any
caller reads an attribute of that name. A module-level function or
class counts when its own module loads it, when a caller imports it
from its module or package, or when a caller reaches it through an
imported module.

The second test lists the defaulted parameters of every public
function, method and constructor (dataclass fields included) that no
call in those files passes. Calls are matched by callee name: a call
passes a parameter by keyword or by position, and a call with
``*args`` or ``**kwargs`` passes every parameter; ``super().__init__``
counts as a call of the base classes. An option no caller passes is a
constant in disguise: fold it into a module constant equal to its
default, or delete the mode it selects with the tests that check only
it. ``KEPT_OPTIONS`` lists the exceptions, each entry a parameter, a
callable or a whole class or module, with one reason each.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

KEPT = {
    # Oracles for paper claims (Sec. 3 and 5 link budgets; Table 1;
    # the universal preamble's C(P_j, P) check; Fig. 3(b) scoring).
    "repro.analysis.rate_margin_db",
    "repro.analysis.detectable_snr_db",
    "repro.phy.registry.all_technologies",
    "repro.phy.registry.implemented_technologies",
    "repro.gateway.universal.UniversalPreamble.response_to",
    "repro.gateway.detection.detection_ratio",
    # Oracles for modem claims.
    "repro.dsp.measure.occupied_bandwidth",
    "repro.dsp.fm.instantaneous_frequency",
    "repro.dsp.filters.fir_filter",
    "repro.dsp.channel.noise_for_band_snr",
    "repro.phy.psk.bpsk_demodulate_bits",
    "repro.phy.psk.dbpsk_modulate",
    "repro.phy.psk.dbpsk_decode",
    "repro.utils.gray.gray_encode",
    "repro.utils.gray.gray_decode",
    # Oracle for the collision placement of the traffic generators.
    "repro.types.SceneTruth.collisions",
    # Oracle of the greedy peak picking that top_peaks (the classifier)
    # and the streaming replay (greedy_suppress) define themselves by.
    "repro.dsp.correlation.find_peaks_above",
    # The engine's oracle: one full-length fftconvolve per template,
    # which the overlap-save engine (correlate_many) is tested against.
    "repro.dsp.correlation.cross_correlate",
    # Drivers of behaviour that stays.
    "repro.cloud.parallel.ParallelCloudService.process_segments",
    "repro.dsp.fastcorr.spectrum_plan_cache_info",
    "repro.dsp.fastcorr.TemplateBank.n_distinct",
    "repro.dsp.fastcorr.TemplateBank.template",
    "repro.dsp.fastcorr.TemplateBank.max_template_len",
    "repro.contracts.real_contract",
    "repro.contracts.ensure_real",
    "repro.contracts.contract_kind",
    "repro.drill.DrillReport.ledger",
    "repro.guard.GuardStats.rejected",
    "repro.net.adversary.AttackLedger.spoofed",
}


_PHY = "modem PHY configuration: the standard's parameters (create_modem passes them as **kwargs)"
_POLICY = "resilience, attack or chaos policy the drills and resilience benches tune"
_EXPERIMENT = "experiment seed, trial and sweep parameters"
_RECORD = "result or state record: fields the code fills, not options"
_TELEMETRY = "telemetry sink (the zero-cost NULL by default)"

KEPT_OPTIONS = {
    # Modem PHY configuration.
    "repro.phy.ble.modem.BleModem": _PHY,
    "repro.phy.lora.modem.LoRaModem": _PHY,
    "repro.phy.oqpsk154.modem.OQpsk154Modem": _PHY,
    "repro.phy.sigfox.modem.SigfoxModem": _PHY,
    "repro.phy.xbee.modem.XBeeModem": _PHY,
    "repro.phy.zwave.modem.ZWaveModem": _PHY,
    # Hardware models.
    "repro.gateway.rtlsdr.RtlSdrConfig": "the RTL-SDR hardware model",
    "repro.net.device.EnergyProfile": "a device's battery and power model",
    "repro.net.device.Device.energy": "a device's battery and power model",
    # Policies and bounds.
    "repro.gateway.resilience.ResilientBackhaul": _POLICY,
    "repro.gateway.resilience.DegradationLadder": _POLICY,
    "repro.cloud.parallel.CloudResilience": _POLICY,
    "repro.guard.DecodeGuard": _POLICY,
    "repro.faults.FaultPlan": _POLICY,
    "repro.drill.DrillReport.passed": _POLICY,
    "repro.cloud.dispatch.SlaPolicy.default_s": "tests drive the SLA fallback with it",
    "repro.cloud.decoder.CloudDecoder.max_iterations": "safety bound on Algorithm 1's loop",
    # Experiments.
    "repro.experiments.ablations": _EXPERIMENT,
    "repro.experiments.battery.run_battery": _EXPERIMENT,
    "repro.experiments.boundary.run_boundary": _EXPERIMENT,
    "repro.experiments.fig3b_detection.run_fig3b": _EXPERIMENT,
    "repro.experiments.growth.run_universal_growth": _EXPERIMENT,
    "repro.experiments.headline.run_headline": _EXPERIMENT,
    "repro.experiments.hopping_exp.run_hopping": _EXPERIMENT,
    "repro.experiments.sweeps": _EXPERIMENT,
    # Oracle parameters of names kept as oracles.
    "repro.gateway.detection.detection_ratio.gate": "Fig. 3(b) scoring oracle",
    "repro.analysis.detectable_snr_db.required_deflection_db": "Sec. 3 link-budget oracle",
    "repro.dsp.measure.occupied_bandwidth.fraction": (
        "modem-claim oracle measured at 0.95, 0.97 and 0.99; the modem contract's "
        "bandwidth bound holds at 0.97, and SigFox exceeds it at the 0.99 default"
    ),
    # Utilities and decorators.
    "repro.contracts": "the contract decorators' check options",
    "repro.utils.bits": "bit-order options of the bit utilities",
    "repro.utils.crc": "CRC parameters",
    "repro.utils.whitening": "LFSR parameters",
    # Result and state records.
    "repro.cloud.decoder.CloudDecodeReport": _RECORD,
    "repro.cloud.pipeline.CloudStats": _RECORD,
    "repro.experiments.common.ExperimentTable": _RECORD,
    "repro.experiments.fig3b_detection.Fig3bResult": _RECORD,
    "repro.experiments.fig3c_collisions.Fig3cResult": _RECORD,
    "repro.gateway.backhaul.BackhaulLink.shipments": _RECORD,
    "repro.gateway.gateway.GatewayReport": _RECORD,
    "repro.gateway.hopping.HopScheduler.weights": _RECORD,
    "repro.gateway.resilience.SpillEntry": _RECORD,
    "repro.gateway.universal.UniversalPreamble.representatives": _RECORD,
    "repro.guard.GuardStats": _RECORD,
    "repro.net.adversary.AttackLedger": _RECORD,
    "repro.net.energy.EnergyLedger": _RECORD,
    "repro.net.mac.MacState": _RECORD,
    "repro.net.mac.PendingFrame": _RECORD,
    "repro.net.simulator.SimulationResult": _RECORD,
    "repro.telemetry.Telemetry": _RECORD,
    # Telemetry sinks.
    "repro.gateway.backhaul.BackhaulLink.telemetry": _TELEMETRY,
    "repro.sensing.jamming.JammingDetector.telemetry": _TELEMETRY,
}

def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions() -> list[tuple[str, str | None, str]]:
    """``(module, class or None, name)`` of every public definition."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((module, None, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                )
    return found


def _import_source(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module an import reads from (relative ones resolved)."""
    if not node.level:
        return node.module or ""
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _references() -> tuple[set[str], set[tuple[str, str]], set[tuple[str, str]]]:
    """Attribute names, ``(module, name)`` pairs reached from other
    modules, and ``(module, name)`` pairs each src module loads itself."""
    src_modules = {_module(p) for p in (ROOT / "src").rglob("*.py")}
    attributes: set[str] = set()
    reached: set[tuple[str, str]] = set()
    own: set[tuple[str, str]] = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            module = _module(path) if top == "src" else None
            aliases: dict[str, str] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        aliases[bound] = alias.name if alias.asname else bound
                elif isinstance(node, ast.ImportFrom):
                    source = _import_source(path, node) if module else node.module or ""
                    for alias in node.names:
                        if f"{source}.{alias.name}" in src_modules:
                            aliases[alias.asname or alias.name] = f"{source}.{alias.name}"
                        elif path.name != "__init__.py":
                            reached.add((source, alias.name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    chain, value = [], node.value
                    while isinstance(value, ast.Attribute):
                        chain.append(value.attr)
                        value = value.value
                    if isinstance(value, ast.Name) and value.id in aliases:
                        owner = ".".join([aliases[value.id], *reversed(chain)])
                        reached.add((owner, node.attr))
                elif module and isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        own.add((module, node.id))
    return attributes, reached, own


def test_src_holds_nothing_only_tests_reach():
    attributes, reached, own = _references()

    def referenced(module: str, cls: str | None, name: str) -> bool:
        if cls is not None:
            return name in attributes
        if (module, name) in own:
            return True
        return any(
            name == ref and (module == source or module.startswith(source + "."))
            for source, ref in reached
        )

    unreferenced = {
        ".".join(part for part in (module, cls, name) if part)
        for module, cls, name in _definitions()
        if not referenced(module, cls, name)
    }
    extra = sorted(unreferenced - KEPT)
    assert not extra, f"reached only from tests/: {extra}"
    stale = sorted(KEPT - unreferenced)
    assert not stale, f"kept, but referenced outside tests/: {stale}"


# -- options ---------------------------------------------------------------


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _signature(fn: ast.FunctionDef, method: bool) -> tuple[list[str], set[str], set[str]]:
    """``(positional names, keyword-only names, defaulted names)``."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    defaulted = set(positional[len(positional) - len(args.defaults):]) if args.defaults else set()
    kwonly = {a.arg for a in args.kwonlyargs}
    defaulted |= {
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults, strict=True) if d is not None
    }
    return positional, kwonly, defaulted


def _dataclass_fields(node: ast.ClassDef) -> tuple[list[str], set[str]]:
    """``(init field names in order, defaulted ones)``."""
    names, defaulted = [], set()
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            if any(k.arg == "init" and getattr(k.value, "value", True) is False
                   for k in value.keywords):
                continue
        names.append(item.target.id)
        if value is not None:
            defaulted.add(item.target.id)
    return names, defaulted


def _option_definitions() -> list[tuple[str, str, list[str], set[str], set[str]]]:
    """``(callee name, qualified prefix, positional names, keyword-only
    names, defaulted names)`` of every public function, method and
    constructor in ``src/repro``."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                found.append((node.name, f"{module}.{node.name}", *_signature(node, False)))
            else:
                qual = f"{module}.{node.name}"
                init = next(
                    (i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"),
                    None,
                )
                if init is not None:
                    found.append((node.name, qual, *_signature(init, True)))
                elif _is_dataclass(node):
                    names, defaulted = _dataclass_fields(node)
                    found.append((node.name, qual, names, set(), defaulted))
                found.extend(
                    (item.name, f"{qual}.{item.name}", *_signature(item, True))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


class _Calls(ast.NodeVisitor):
    """Every call in one file: callee name → ``(positional count,
    keyword names, passes *args/**kwargs)`` per call."""

    def __init__(self, calls: dict[str, list[tuple[int, set[str], bool]]]):
        self.calls = calls
        self.aliases: dict[str, str] = {}
        self.bases: list[list[str]] = []

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases.append(
            [b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "") for b in node.bases]
        )
        self.generic_visit(node)
        self.bases.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            names = [self.aliases.get(func.id, func.id)]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
            value = func.value
            if (
                func.attr == "__init__"
                and isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "super"
                and self.bases
            ):
                names = self.bases[-1]
        else:
            names = []
        positional = next(
            (i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args)
        )
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        unpacked = positional < len(node.args) or any(k.arg is None for k in node.keywords)
        for name in names:
            self.calls.setdefault(name, []).append((positional, keywords, unpacked))
        self.generic_visit(node)


def _unpassed_options() -> set[str]:
    """Qualified names of defaulted parameters (and dataclass fields)
    that no call outside ``tests/`` passes."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            _Calls(calls).visit(ast.parse(path.read_text()))
    unpassed = set()
    for name, qual, positional, kwonly, defaulted in _option_definitions():
        sites = calls.get(name, [])
        for param in defaulted:
            if param.startswith("_"):
                continue
            index = positional.index(param) if param not in kwonly else None
            if not any(
                unpacked or param in keywords or (index is not None and index < count)
                for count, keywords, unpacked in sites
            ):
                unpassed.add(f"{qual}.{param}")
    return unpassed


def test_every_option_is_passed_outside_tests():
    unpassed = _unpassed_options()

    def kept(option: str) -> bool:
        return any(option == k or option.startswith(k + ".") for k in KEPT_OPTIONS)

    extra = sorted(o for o in unpassed if not kept(o))
    assert not extra, f"options only tests pass (fold into constants): {extra}"
    stale = sorted(
        k for k in KEPT_OPTIONS
        if not any(o == k or o.startswith(k + ".") for o in unpassed)
    )
    assert not stale, f"kept, but every option under it is passed outside tests/: {stale}"
