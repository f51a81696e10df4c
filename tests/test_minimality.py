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

*The checks check something.*  Each gate pattern must catch a planted line in a
file its pathspecs cover (``PLANTED``), and the scan's rules run on small
synthetic trees: a regex that lost an escape, a pathspec that names a moved
file or a rule that stopped counting would otherwise pass on any tree.
"""

from __future__ import annotations

import ast
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
        tree = ast.parse(text, filename=path)
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
