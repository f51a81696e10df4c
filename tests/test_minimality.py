"""The minimality ratchet and the architecture gates, run by tier-1.

*Every definition has a caller.*  A function, method or class defined in
``src/repro`` must be named somewhere in ``src/``, ``benchmarks/`` or
``examples/`` other than its own definition, an ``__all__`` list, a package
``__init__`` re-export or a docstring.  A name counts wherever it appears as a
name, an attribute, an import, or inside a string constant: the ledger's span
targets are strings in ``benchmarks/``, so every span target keeps its
definition.  Tests do not count: code that only a test calls is deleted, or
moves into ``tests/`` when a test uses it as its reference.  ``ALLOWED`` holds
README-documented API that has no caller yet; an entry that gains a caller or
leaves the README fails, so the list can only shrink.

*Architecture gates.*  Each entry of ``GATES`` is a rule an earlier change
established, as regular expressions over the ``*.py`` files under some paths
(``:!`` excludes a file; the pathspecs CI's ``git grep`` steps used); any
matching line fails it.  The one counted rule, one ``greedy_action(`` call
outside the policy, has its own test.

*Every config field has a setter.*  A leaf field of the config classes in
``src/repro/config.py`` must be set somewhere in ``src/``, ``benchmarks/`` or
``examples/``: as a keyword of a call to its class, as a keyword of a
``replace(...)`` call, or by an assignment ``<x>.<section>.<field> = ...``
where ``<section>`` is the ``BQSchedConfig`` field holding its class.  The
class bodies in ``config.py`` do not count (``BQSchedConfig.small()`` does),
neither do tests, and neither does a keyword or assignment whose value is a
literal equal to the field's default literal: a value no caller chooses, or
that every caller chooses to be the default, is a constant where it is used.
Field names are unique across the classes, so a ``replace`` keyword names one
field.  There is no allow-list.

*Every keyword default has a caller.*  A parameter default of a module- or
class-level function in ``src/repro`` must be passed by some call in ``src/``,
``benchmarks/`` or ``examples/``: by keyword, by position or through a splat
(:func:`default_passes` says which calls count).  A default no caller passes is
a constant where it is used, and the branch that only its other values took is
deleted.  ``ALLOWED_DEFAULTS`` holds the defaults the scan cannot see passed;
it can only shrink.

*The checks check something.*  Each gate pattern must catch a planted line in a
file its pathspecs cover (``PLANTED``), and the scans' rules run on small
synthetic trees: a regex that lost an escape, a pathspec that names a moved
file or a rule that stopped counting would otherwise pass on any tree.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: README-documented API without a caller in src/, benchmarks/ or examples/.
ALLOWED = frozenset({
    "ingest_online_log",  # BQSched: the continual-adaptation entry point
    "failure_counts",  # TenantSession: failed attempts per query
})

#: ``Owner.function.parameter`` defaults that no call outside tests passes: the tape methods leave ``src/``
#: with the tape.
ALLOWED_DEFAULTS = frozenset({
    "ActorCriticNetwork.act.clusters",
    "ActorCriticNetwork.evaluate_action.clusters",
    "ActorCriticNetwork.evaluate_actions_batch.clusters",
    "ActorCriticNetwork.evaluate_auxiliary_batch.clusters",
    "Tensor.backward.grad",
})

CONFIG = "src/repro/config.py"


class Gate(NamedTuple):
    """One architecture rule: the CI step it came from, and its ``(pattern, pathspecs)`` checks."""

    step: str
    checks: tuple[tuple[str, tuple[str, ...]], ...]


#: No line of a check's files may match its pattern.
GATES = {
    "no-warn-and-fall-back": Gate(
        "No warn-and-fall-back in the library (failures raise, naming the reason)",
        ((r"warnings.warn", ("src",)),),
    ),
    "numpy-only": Gate(
        "NumPy is the only run-time dependency (scipy is imported by tests alone)",
        ((r"^\s*(from|import) scipy", ("src", "examples")),),
    ),
    "session-contract": Gate(
        "The runtime and the env call the session contract directly (no getattr/hasattr probes)",
        ((r"(getattr|hasattr)\((self\._)?(shared|session)", ("src/repro/runtime", "src/repro/core")),),
    ),
    "one-scheduling-env": Gate(
        "One scheduling env (the old fleet-env name survives only as the ledger's alias in core/cluster_env.py)",
        ((r"ClusterSchedulingEnv", ("src", ":!src/repro/core/cluster_env.py")),),
    ),
    "one-snapshot-builder": Gate(
        "One snapshot builder in the env (the per-query reference lives in tests/snapshot_oracle.py)",
        ((r"snapshot_aos|QueryRuntimeInfo\(", ("src/repro/core",)),),
    ),
    "paper-features-and-reward": Gate(
        "The policy observes the paper's features and is rewarded -elapsed",
        (
            (
                r"(arrival|failure|slo)_channel|failure_penalty|slo_penalty|fairness_weight|_slo_context"
                r"|deadline_slack|time_to_available|QueryRuntimeInfo|SchedulingSnapshot",
                ("src",),
            ),
        ),
    ),
    "one-small-fit-path": Gate(
        "One small-fit path (the simulator fit and the gain fit run repro.nn.optim.AdamSlabs; no per-step optimizer "
        "loop, no layer kernel of their own)",
        (
            (r"perfmodel_example_step|Adam\(|zero_grad\(", ("src/repro/perf", "src/repro/core/gain.py")),
            (r"def _?[a-z_]*_(forward|backward)\b", ("src/repro/perf", "src/repro/core/gain.py")),
        ),
    ),
    "one-fleet-session": Gate(
        "One fleet session (placement, park, cancel, health and instance context live in FleetSession, the one "
        "session class; a single engine is a fleet of one; one outage model)",
        (
            (
                r"def (park_instance|unpark_instance|parked_instances|instance_context|idle_instances|instance_of"
                r"|cancel|instance_health|next_fault_wakeup|park|unpark|is_parked)\b",
                ("src/repro/dbms/cluster.py", "src/repro/dbms/engine.py", "src/repro/perf/simcluster.py"),
            ),
            (r"def (next_outage_start|recovery_time)\b", ("src/repro/dbms/faults.py",)),
            (r"BackendSession", ("src",)),
        ),
    ),
    "no-tape-when-building": Gate(
        "Building a scheduler runs no tape and no engine session (QueryFormer embeds on the float64 path; probes "
        "read the fluid model's rate)",
        (
            (r"no_grad|Tensor\(", ("src/repro/encoder/queryformer.py",)),
            (r"0xC0FFEE", ("src",)),
        ),
    ),
    "one-float64-forward": Gate(
        "One float64 forward (fastinfer is the float32 decision program only; QueryFormer and the simulator run "
        "fastgrad's kernels), no BatchNorm running statistics, no tape in the simulator or the gain model",
        (
            (
                r"def (linear_forward|mlp_forward|norm_forward|attention_forward|attention_forward_batched"
                r"|attention_encoder_forward|fast_inference_reason)\b",
                ("src/repro/nn/fastinfer.py",),
            ),
            (r"running_(mean|var)", ("src",)),
            (r"no_grad|Tensor\(", ("src/repro/perf", "src/repro/core/gain.py")),
        ),
    ),
    "one-greedy-loop": Gate(
        "One greedy loop (BaseScheduler.evaluate via RLSchedulerBase.select_action; the trainer evaluates nothing, "
        "and evaluation rounds are an argument, not a config field)",
        ((r"eval_every|eval_env|eval_makespans|evaluation_rounds", ("src",)),),
    ),
    "one-place-per-round-setting": Gate(
        "One place per round setting (serve()'s arguments are the service settings; faults enter a round through "
        "new_session(faults=), never a backend attribute; the serving width is config.scheduler.num_connections)",
        (
            (r"ServiceConfig|config\.service|from_service_config", ("src", "benchmarks", "examples")),
            (r"self\.faults\b", ("src/repro/dbms", "src/repro/perf")),
            (r"replace\(self\.config\.scheduler", ("src/repro/core",)),
        ),
    ),
    "fault-free-simulator": Gate(
        "The learned simulator is fault-free by construction (faults have one model, the engine's: no fate draws, "
        "fault stream, hang or error stretching in the simulator)",
        ((r"draw_fate|FAULT_STREAM|\bfault_rng\b|\bfates\b|hang_factor|error_work_fraction", ("src/repro/perf",)),),
    ),
}

#: One ``(path, line)`` per check of each gate, in the gate's order: a violation the check must catch.
PLANTED = {
    "no-warn-and-fall-back": (("src/repro/config.py", "warnings.warn('falling back')"),),
    "numpy-only": (("examples/quickstart.py", "import scipy"),),
    "session-contract": (("src/repro/core/env.py", "getattr(self._shared, 'state_arrays', None)"),),
    "one-scheduling-env": (("src/repro/core/env.py", "ClusterSchedulingEnv = SchedulingEnv"),),
    "one-snapshot-builder": (("src/repro/core/env.py", "rows = snapshot_aos(session)"),),
    "paper-features-and-reward": (("src/repro/config.py", "failure_channel: bool = False"),),
    "one-small-fit-path": (
        ("src/repro/core/gain.py", "optimizer = Adam(parameters)"),
        ("src/repro/perf/model.py", "def _gain_forward(x):"),
    ),
    "one-fleet-session": (
        ("src/repro/dbms/engine.py", "    def park(self, instance):"),
        ("src/repro/dbms/faults.py", "    def recovery_time(self, now):"),
        ("src/repro/runtime/runtime.py", "class BackendSession:"),
    ),
    "no-tape-when-building": (
        ("src/repro/encoder/queryformer.py", "with no_grad():"),
        ("src/repro/core/env.py", "rng = np.random.default_rng(0xC0FFEE)"),
    ),
    "one-float64-forward": (
        ("src/repro/nn/fastinfer.py", "def mlp_forward(pack, x):"),
        ("src/repro/nn/layers.py", "self.running_mean = np.zeros(dim)"),
        ("src/repro/perf/model.py", "x = Tensor(features)"),
    ),
    "one-greedy-loop": (("src/repro/core/ppo.py", "eval_every: int = 10"),),
    "one-place-per-round-setting": (
        ("examples/cluster_scheduling.py", "fleet = Cluster.from_service_config(config.service, seed=0)"),
        ("src/repro/perf/simcluster.py", "        self.faults = faults"),
        ("src/repro/core/bqsched.py", "        config = replace(self.config.scheduler, num_connections=8)"),
    ),
    "fault-free-simulator": (("src/repro/perf/simcluster.py", "        fate = faults.draw_fate(self._fault_rng)"),),
}


@functools.cache
def python_files(*pathspecs: str) -> tuple[str, ...]:
    """The ``*.py`` files under ``pathspecs`` (a directory or a file; ``:!file`` excludes one), relative to the root."""
    found = set()
    for spec in pathspecs:
        if not spec.startswith(":!"):
            path = ROOT / spec
            found.update(p.relative_to(ROOT).as_posix() for p in ([path] if path.is_file() else path.rglob("*.py")))
    return tuple(sorted(found - {spec[2:] for spec in pathspecs if spec.startswith(":!")}))


@functools.cache
def source(path: str) -> str:
    return (ROOT / path).read_text(encoding="utf-8")


@functools.cache
def parse(path: str, text: str) -> ast.Module:
    """``text``'s syntax tree, parsed once for every scan that reads it (no scan writes to a tree)."""
    return ast.parse(text, filename=path)


def matching_lines(pattern: str, pathspecs: tuple[str, ...], read: Callable[[str], str] = source) -> list[str]:
    """``path:line: text`` of every line matching ``pattern``, like ``git grep -n``."""
    regex = re.compile(pattern)
    return [
        f"{path}:{number}: {line.strip()}"
        for path in python_files(*pathspecs)
        for number, line in enumerate(read(path).splitlines(), start=1)
        if regex.search(line)
    ]


def planted(path: str, text: str) -> Callable[[str], str]:
    """Read the tree with ``text`` appended to ``path``."""
    return lambda p: source(p) + f"\n{text}\n" if p == path else source(p)


def greedy_call_files(read: Callable[[str], str] = source) -> Counter:
    """How many ``greedy_action(`` calls each file outside the policy makes."""
    hits = matching_lines(r"greedy_action\(", ("src", ":!src/repro/core/policy.py"), read)
    return Counter(hit.split(":")[0] for hit in hits)


def _not_callers(tree: ast.Module) -> set[int]:
    """Node ids that name nothing: docstrings, and everything inside an ``__all__`` assignment."""
    ignored = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ignored.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                ignored.update(id(child) for child in ast.walk(node.value))
    return ignored


def definitions_and_names(files: Iterable[tuple[str, str]]) -> tuple[dict[str, list[str]], frozenset[str]]:
    """``(definitions, names)`` of ``(path, text)`` files: where each non-dunder name is defined in
    ``src/repro``, and every name used."""
    definitions: dict[str, list[str]] = {}
    names: set[str] = set()
    for path, text in files:
        tree = parse(path, text)
        ignored = _not_callers(tree)
        reexports = path.endswith("__init__.py")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if path.startswith("src/repro/") and not dunder:
                    definitions.setdefault(node.name, []).append(f"{path}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                names.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in ignored:
                names.update(IDENTIFIER.findall(node.value))
    return definitions, frozenset(names)


@functools.cache
def scan() -> tuple[dict[str, list[str]], frozenset[str]]:
    """:func:`definitions_and_names` of the tree's ``src/``, ``benchmarks/`` and ``examples/``."""
    return definitions_and_names((path, source(path)) for path in python_files("src", "benchmarks", "examples"))


def uncalled(definitions: dict[str, list[str]], names: frozenset[str]) -> list[str]:
    """``name (path:line, ...)`` of every definition that no name and no ``ALLOWED`` entry covers."""
    known = names | ALLOWED
    return sorted(f"{name} ({', '.join(where)})" for name, where in definitions.items() if name not in known)


def test_every_definition_has_a_caller_outside_tests():
    uncalled_definitions = uncalled(*scan())
    assert not uncalled_definitions, (
        "defined in src/repro but called from nowhere outside tests/ (delete it, or move a test's reference "
        "into tests/): " + "; ".join(uncalled_definitions)
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_the_allow_list_only_shrinks(name):
    definitions, names = scan()
    assert name in definitions, f"{name} is no longer defined in src/repro: drop it from ALLOWED"
    assert name not in names, f"{name} has a caller now: drop it from ALLOWED"
    assert re.search(rf"\b{name}\b", (ROOT / "README.md").read_text(encoding="utf-8")), (
        f"{name} is not README-documented API: delete it, or move it into tests/"
    )


@pytest.mark.parametrize("gate", list(GATES))
def test_architecture_gate(gate):
    step, checks = GATES[gate]
    hits = [hit for pattern, pathspecs in checks for hit in matching_lines(pattern, pathspecs)]
    assert not hits, f"{step}:\n" + "\n".join(hits)


def test_one_greedy_call_outside_the_policy():
    """The greedy loop's one decision call is ``RLSchedulerBase.select_action``'s."""
    assert greedy_call_files() == {"src/repro/core/bqsched.py": 1}, "\n".join(
        matching_lines(r"greedy_action\(", ("src", ":!src/repro/core/policy.py"))
    )


def test_a_second_greedy_call_breaks_the_count():
    call = "action = self.policy.greedy_action(state)"
    assert greedy_call_files(planted("src/repro/core/env.py", call)) == {
        "src/repro/core/bqsched.py": 1,
        "src/repro/core/env.py": 1,
    }
    assert greedy_call_files(planted("src/repro/core/policy.py", call)) == {"src/repro/core/bqsched.py": 1}


@pytest.mark.parametrize("gate", list(GATES))
def test_each_gate_check_catches_its_planted_violation(gate):
    checks = GATES[gate].checks
    assert len(PLANTED[gate]) == len(checks), f"{gate}: plant one violation per check"
    for (pattern, pathspecs), (path, line) in zip(checks, PLANTED[gate]):
        assert path in python_files(*pathspecs), f"{gate}: {pathspecs} does not cover {path}"
        hits = matching_lines(pattern, pathspecs, planted(path, line))
        assert [hit.split(":")[0] for hit in hits] == [path], f"{gate}: {pattern!r} missed {line!r}: {hits}"


def test_a_planted_uncalled_definition_fails_the_scan():
    path = "src/repro/core/types.py"
    definitions, names = scan()
    text = planted(path, "def planted_unused():\n    return 0")(path)
    planted_definitions, planted_names = definitions_and_names([(path, text)])
    found = uncalled({**definitions, **planted_definitions}, names | planted_names)
    assert [entry.split(" (")[0] for entry in found] == ["planted_unused"], found
    assert found[0].startswith(f"planted_unused ({path}:")


#: ``src/repro/pkg/mod.py`` defines ``helper``; does this one more file count as its caller?
SCAN_RULES = {
    "attribute-in-src": (("src/repro/pkg/user.py", "from . import mod\n\nmod.helper()\n"), True),
    "import-in-an-example": (("examples/demo.py", "from repro.pkg.mod import helper\n"), True),
    "string-in-benchmarks": (("benchmarks/ledger/targets.py", 'SPANS = ["repro.pkg.mod:helper"]\n'), True),
    "docstring": (("src/repro/pkg/user.py", '"""Call helper() one day."""\n'), False),
    "comment": (("src/repro/pkg/user.py", "# helper() is not called here\n"), False),
    "all-list": (("src/repro/pkg/user.py", '__all__ = ["helper"]\n'), False),
    "package-reexport": (("src/repro/pkg/__init__.py", "from .mod import helper\n"), False),
}


@pytest.mark.parametrize("rule", list(SCAN_RULES))
def test_scan_rule(rule):
    (path, text), counts = SCAN_RULES[rule]
    module = ("src/repro/pkg/mod.py", 'def helper():\n    """Return one; helper names itself here."""\n    return 1\n')
    definitions, names = definitions_and_names([module, (path, text)])
    assert definitions == {"helper": ["src/repro/pkg/mod.py:1"]}
    assert ("helper" in names) is counts


def test_dunder_definitions_need_no_caller():
    text = "class Pool:\n    def __len__(self):\n        return 0\n\n\nPOOLS = [Pool()]\n"
    definitions, names = definitions_and_names([("src/repro/pkg/pool.py", text)])
    assert definitions == {"Pool": ["src/repro/pkg/pool.py:1"]}
    assert not uncalled(definitions, names)


def config_fields(text: str) -> tuple[dict[str, tuple[str, ...]], dict[str, str]]:
    """``(fields, sections)`` of a ``config.py`` text: each config class's leaf fields, and the config class
    each ``BQSchedConfig`` field holds."""
    classes = {node.name: node for node in ast.parse(text).body if isinstance(node, ast.ClassDef)}

    def annotated(node: ast.ClassDef) -> dict[str, str]:
        return {
            stmt.target.id: ast.unparse(stmt.annotation)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }

    sections = annotated(classes.pop("BQSchedConfig"))
    fields = {name: tuple(annotated(node)) for name, node in classes.items()}
    return fields, {section: holder for section, holder in sections.items() if holder in fields}


def field_defaults(text: str) -> dict[str, object]:
    """The default of every field of a ``config.py`` text whose default is a literal, by field name."""
    defaults = {}
    for node in ast.parse(text).body:
        for stmt in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.value is not None:
                with contextlib.suppress(ValueError, TypeError):
                    defaults[stmt.target.id] = ast.literal_eval(stmt.value)
    return defaults


def knob_setters(
    files: Iterable[tuple[str, str]],
    fields: dict[str, tuple[str, ...]],
    sections: dict[str, str],
    defaults: dict[str, object],
) -> set[str]:
    """``Class.field`` of every config field that one of the ``(path, text)`` files sets to a value other
    than its default literal."""
    owner = {name: holder for holder, names in fields.items() for name in names}

    def default(name: str, value: ast.expr) -> bool:
        try:
            return name in defaults and ast.literal_eval(value) == defaults[name]
        except (ValueError, TypeError):
            return False

    found = set()
    for path, text in files:
        tree = parse(path, text)
        skipped = {
            id(node)
            for holder in tree.body
            if path == CONFIG and isinstance(holder, ast.ClassDef) and holder.name in fields
            for node in ast.walk(holder)
        }
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                for keyword in node.keywords:
                    if keyword.arg is not None and default(keyword.arg, keyword.value):
                        continue
                    if keyword.arg in fields.get(callee, ()):
                        found.add(f"{callee}.{keyword.arg}")
                    elif callee == "replace" and keyword.arg in owner:
                        found.add(f"{owner[keyword.arg]}.{keyword.arg}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute):
                        holder = sections.get(target.value.attr, "")
                        if isinstance(node, ast.Assign) and default(target.attr, node.value):
                            continue
                        if target.attr in fields.get(holder, ()):
                            found.add(f"{holder}.{target.attr}")
    return found


@functools.cache
def knob_scan(read: Callable[[str], str] = source) -> tuple[dict[str, tuple[str, ...]], set[str]]:
    """The config fields and their setters in the tree's ``src/``, ``benchmarks/`` and ``examples/``."""
    fields, sections = config_fields(read(CONFIG))
    files = ((path, read(path)) for path in python_files("src", "benchmarks", "examples"))
    return fields, knob_setters(files, fields, sections, field_defaults(read(CONFIG)))


def unset_knobs(fields: dict[str, tuple[str, ...]], setters: set[str]) -> list[str]:
    """``Class.field`` of every config field that no setter covers."""
    return sorted(f"{holder}.{name}" for holder, names in fields.items() for name in names
                  if f"{holder}.{name}" not in setters)


def test_every_config_field_has_a_setter_outside_tests():
    unset = unset_knobs(*knob_scan())
    assert not unset, (
        "config fields that nothing outside tests/ sets to a value other than the default (make each a constant "
        "where it is used): " + ", ".join(unset)
    )


def test_config_field_names_are_unique():
    fields, _ = config_fields(source(CONFIG))
    counts = Counter(name for names in fields.values() for name in names)
    assert not [name for name, count in counts.items() if count > 1], counts


def planted_knob_scan(setter: str):
    """The knob scan of the tree with a ``ClusteringConfig.planted_knob = 0`` field and ``setter``
    appended to an example."""
    field_line = "    num_clusters: int = 100\n"
    assert field_line in source(CONFIG)
    example = "examples/quickstart.py"

    def read(path: str) -> str:
        text = source(path)
        if path == CONFIG:
            return text.replace(field_line, field_line + "    planted_knob: int = 0\n")
        return text + setter if path == example else text

    return knob_scan(read)


def test_a_planted_unset_field_fails_the_knob_gate():
    assert unset_knobs(*planted_knob_scan("")) == ["ClusteringConfig.planted_knob"]


def test_a_planted_default_only_field_fails_the_knob_gate():
    """A setter outside tests that passes the field's default literal is no setter."""
    setter = "\nrepro.ClusteringConfig(planted_knob=0)\n"
    assert unset_knobs(*planted_knob_scan(setter)) == ["ClusteringConfig.planted_knob"]


#: A config module with one field, ``TinyConfig.depth``; its class body sets nothing that counts.
TINY_CONFIG = """
@dataclass
class TinyConfig:
    depth: int = 2

    @staticmethod
    def deep():
        return TinyConfig(depth=8)


@dataclass
class BQSchedConfig:
    tiny: TinyConfig = field(default_factory=TinyConfig)
    seed: int = 0
"""

#: Does this one more ``(path, text)`` (appended to ``TINY_CONFIG`` when the path is ``CONFIG``) set ``depth``?
KNOB_RULES = {
    "class-call-keyword": (("examples/demo.py", "tiny = repro.TinyConfig(depth=3)\n"), True),
    "replace-keyword": (("src/repro/pkg/user.py", "tiny = replace(tiny, depth=3)\n"), True),
    "section-assignment": (("benchmarks/bench_demo.py", "config.tiny.depth = 3\n"), True),
    "bqsched-small": (
        (CONFIG, "\n    @classmethod\n    def small(cls):\n        return cls(tiny=TinyConfig(depth=1))\n"), True
    ),
    "config-class-body": ((CONFIG, ""), False),
    "read": (("src/repro/pkg/user.py", "depth = config.tiny.depth\n"), False),
    "other-section": (("src/repro/pkg/user.py", "config.plan.depth = 3\n"), False),
    "other-class-keyword": (("src/repro/pkg/user.py", "plan = Plan(depth=3)\n"), False),
    "default-literal-keyword": (("examples/demo.py", "tiny = repro.TinyConfig(depth=2)\n"), False),
    "default-literal-section-assignment": (("benchmarks/bench_demo.py", "config.tiny.depth = 2\n"), False),
    "non-literal-keyword": (("examples/demo.py", "tiny = repro.TinyConfig(depth=levels)\n"), True),
}


@pytest.mark.parametrize("rule", list(KNOB_RULES))
def test_knob_rule(rule):
    (path, text), counts = KNOB_RULES[rule]
    files = {CONFIG: TINY_CONFIG}
    files[path] = files.get(path, "") + text
    fields, sections = config_fields(files[CONFIG])
    assert fields == {"TinyConfig": ("depth",)} and sections == {"tiny": "TinyConfig"}
    setters = knob_setters(files.items(), fields, sections, field_defaults(files[CONFIG]))
    assert ("TinyConfig.depth" in setters) is counts


class Defaulted(NamedTuple):
    """A module- or class-level function of ``src/repro`` that has parameter defaults."""

    owner: "str | None"  # the class it is defined in
    name: str
    positional: tuple[str, ...]  # the parameters a positional argument fills, in order (no ``self``/``cls``)
    defaulted: tuple[str, ...]
    where: str


def defaulted_functions(path: str, tree: ast.Module) -> list[Defaulted]:
    """The functions of one module with at least one parameter default."""
    found = []
    bodies = [(None, tree.body)] + [(node.name, node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    for owner, body in bodies:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            bound = owner is not None and not static
            if defaulted:
                found.append(Defaulted(owner, node.name, tuple(positional[bound:]), tuple(defaulted),
                                       f"{path}:{node.lineno}"))
    return found


class Call(NamedTuple):
    """One call site: ``(kind, callee)`` is ``("name", <name or attribute>)`` or, for ``cls(...)``,
    ``type(self)(...)`` and ``super().__init__(...)``, ``("init", <class whose __init__ runs>)``."""

    kind: str
    callee: str
    positional: int
    keywords: frozenset[str]
    splat: bool


def calls_of(tree: ast.Module, bases: dict[str, tuple[str, ...]]) -> list[Call]:
    """Every call in one module; ``bases`` gives the base class names of each class."""
    found = []

    def visit(node: ast.AST, owner: "str | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                keywords = frozenset(keyword.arg for keyword in child.keywords if keyword.arg)
                splat = any(isinstance(arg, ast.Starred) for arg in child.args) or any(
                    keyword.arg is None for keyword in child.keywords
                )
                targets: list[tuple[str, str]] = []
                if isinstance(func, ast.Name):
                    targets = [("init", owner)] if func.id == "cls" and owner else [("name", func.id)]
                elif isinstance(func, ast.Attribute):
                    value = func.value
                    if (func.attr == "__init__" and isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                            and value.func.id == "super" and owner):
                        targets = [("init", base) for base in bases.get(owner, ())]
                    else:
                        targets = [("name", func.attr)]
                elif isinstance(func, ast.Call) and isinstance(func.func, ast.Name) and func.func.id == "type" and owner:
                    targets = [("init", owner)]
                found.extend(Call(kind, callee, len(child.args), keywords, splat) for kind, callee in targets)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def default_passes(files: Iterable[tuple[str, str]]) -> tuple[dict[str, str], set[str]]:
    """``(defaults, passed)`` of ``(path, text)`` files: ``Owner.function.parameter`` (or ``function.parameter``)
    of every parameter default of a ``src/repro`` function with where it is defined, and the ones some call passes.

    A call passes a default when its callee is the function's name or a class-level alias of it (``alias =
    function`` in a class body) and it gives the parameter by keyword or by position, or splats ``*args`` /
    ``**kwargs``.  An ``__init__`` is called by its class's name, the name of a subclass with no ``__init__`` of
    its own, ``cls(...)`` / ``type(self)(...)`` inside such a class, and ``super().__init__(...)`` in a subclass."""
    trees = {path: parse(path, text) for path, text in files}
    bases: dict[str, tuple[str, ...]] = {}
    has_init: set[str] = set()
    aliases: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = tuple(base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                                         for base in node.bases)
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        has_init.add(node.name)
                    elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
                        aliases.setdefault(stmt.value.id, set()).update(
                            target.id for target in stmt.targets if isinstance(target, ast.Name)
                        )
    calls: dict[tuple[str, str], list[Call]] = {}
    for tree in trees.values():
        for call in calls_of(tree, bases):
            calls.setdefault((call.kind, call.callee), []).append(call)

    def callers(function: Defaulted) -> set[tuple[str, str]]:
        if function.name != "__init__" or function.owner is None:
            return {("name", name) for name in {function.name} | aliases.get(function.name, set())}
        classes = {function.owner}
        while more := {
            name for name, parents in bases.items() if name not in has_init and classes & set(parents)
        } - classes:
            classes |= more
        return {(kind, name) for name in classes for kind in ("name", "init")}

    defaults: dict[str, str] = {}
    passed = set()
    for path, tree in trees.items():
        if not path.startswith("src/repro/"):
            continue
        for function in defaulted_functions(path, tree):
            prefix = f"{function.owner}.{function.name}" if function.owner else function.name
            sites = [call for caller in callers(function) for call in calls.get(caller, ())]
            for parameter in function.defaulted:
                key = f"{prefix}.{parameter}"
                defaults[key] = function.where
                index = function.positional.index(parameter) if parameter in function.positional else None
                if any(
                    call.splat or parameter in call.keywords or (index is not None and index < call.positional)
                    for call in sites
                ):
                    passed.add(key)
    return defaults, passed


@functools.cache
def default_scan(read: Callable[[str], str] = source) -> tuple[dict[str, str], set[str]]:
    """:func:`default_passes` of the tree's ``src/``, ``benchmarks/`` and ``examples/``."""
    return default_passes((path, read(path)) for path in python_files("src", "benchmarks", "examples"))


def unpassed_defaults(defaults: dict[str, str], passed: set[str]) -> list[str]:
    """``key (path:line)`` of every default that no call and no ``ALLOWED_DEFAULTS`` entry covers."""
    known = passed | ALLOWED_DEFAULTS
    return sorted(f"{key} ({where})" for key, where in defaults.items() if key not in known)


def test_every_keyword_default_has_a_caller_outside_tests():
    unpassed = unpassed_defaults(*default_scan())
    assert not unpassed, (
        "parameter defaults that no call outside tests/ passes (make each a constant where it is used, and delete "
        "the branch only tests take): " + "; ".join(unpassed)
    )


@pytest.mark.parametrize("entry", sorted(ALLOWED_DEFAULTS))
def test_the_default_allow_list_only_shrinks(entry):
    defaults, passed = default_scan()
    assert entry in defaults, f"{entry} is no longer a parameter default in src/repro: drop it from ALLOWED_DEFAULTS"
    assert entry not in passed, f"{entry} is passed outside tests/ now: drop it from ALLOWED_DEFAULTS"


def test_a_planted_default_with_no_setter_fails_the_gate():
    path = "src/repro/core/types.py"
    read = planted(path, "def planted_scale(x, factor=2.0):\n    return x * factor\n\n\nSCALED = planted_scale(1.0)")
    assert [entry.split(" (")[0] for entry in unpassed_defaults(*default_scan(read))] == ["planted_scale.factor"]


#: A module whose functions have three defaults: ``build.depth``, ``Pool.__init__.width`` and ``Pool.grow.step``.
TINY_MODULE = """
def build(size, depth=2):
    return size * depth


class Pool:
    def __init__(self, width=4):
        self.width = width

    def grow(self, step=1):
        return self.width + step

    bigger = grow
"""

#: Does this one more ``(path, text)`` pass the default ``key`` of ``TINY_MODULE``?
DEFAULT_RULES = {
    "keyword": (("examples/demo.py", "build(3, depth=4)\n"), "build.depth", True),
    "positional": (("src/repro/pkg/user.py", "build(3, 4)\n"), "build.depth", True),
    "too-few-positionals": (("src/repro/pkg/user.py", "build(3)\n"), "build.depth", False),
    "kwargs-splat": (("benchmarks/bench_demo.py", "build(3, **options)\n"), "build.depth", True),
    "args-splat": (("benchmarks/bench_demo.py", "build(*sizes)\n"), "build.depth", True),
    "other-callee": (("src/repro/pkg/user.py", "rebuild(3, depth=4)\n"), "build.depth", False),
    "method-positional": (("src/repro/pkg/user.py", "pool.grow(2)\n"), "Pool.grow.step", True),
    "class-level-alias": (("src/repro/pkg/user.py", "pool.bigger(step=2)\n"), "Pool.grow.step", True),
    "class-call": (("examples/demo.py", "pool = repro.Pool(width=8)\n"), "Pool.__init__.width", True),
    "subclass-call": (
        ("src/repro/pkg/user.py", "class Deep(Pool):\n    pass\n\n\nDeep(8)\n"), "Pool.__init__.width", True
    ),
    "subclass-with-its-own-init": (
        ("src/repro/pkg/user.py", "class Deep(Pool):\n    def __init__(self, depth):\n        super().__init__()\n\n\n"
         "Deep(8)\n"),
        "Pool.__init__.width",
        False,
    ),
    "super-init": (
        ("src/repro/pkg/user.py", "class Deep(Pool):\n    def __init__(self):\n        super().__init__(width=8)\n"),
        "Pool.__init__.width",
        True,
    ),
    "cls-call": (
        ("src/repro/pkg/user.py", "class Deep(Pool):\n    @classmethod\n    def wide(cls):\n        return cls(16)\n"),
        "Pool.__init__.width",
        True,
    ),
    "type-self-call": (
        ("src/repro/pkg/user.py", "class Deep(Pool):\n    def copy(self):\n        return type(self)(self.width)\n"),
        "Pool.__init__.width",
        True,
    ),
}


@pytest.mark.parametrize("rule", list(DEFAULT_RULES))
def test_default_rule(rule):
    (path, text), key, counts = DEFAULT_RULES[rule]
    defaults, passed = default_passes([("src/repro/pkg/mod.py", TINY_MODULE), (path, text)])
    assert sorted(defaults) == ["Pool.__init__.width", "Pool.grow.step", "build.depth"]
    assert (key in passed) is counts
