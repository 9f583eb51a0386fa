import ast
import importlib
import re
from pathlib import Path

import pytest

import seqbell
from seqbell import inequalities
from seqbell.config import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(seqbell.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(set(seqbell.__all__)) == len(seqbell.__all__)
    assert [name for name in seqbell.__all__ if not hasattr(seqbell, name)] == []


def test_star_import():
    namespace = {}
    exec("from seqbell import *", namespace)
    assert set(seqbell.__all__) <= namespace.keys()


def test_public_surface_is_pinned():
    # an export added or removed shows up here as a reviewed edit
    assert sorted(seqbell.__all__) == [
        "Direction",
        "Disturbance",
        "EnsembleResult",
        "ExperimentConfig",
        "HiddenCountTable",
        "InequalityReport",
        "Mode",
        "Model",
        "Outcome",
        "ProtocolConfig",
        "PureState",
        "RunCountTable",
        "SearchConfig",
        "Setting",
        "TripleConfiguration",
        "TripleDistribution",
        "Z_AXIS",
        "__version__",
        "bloch_vector",
        "born_prob",
        "cell_law",
        "check_count_inequality",
        "direction_from_spherical",
        "dot",
        "eigenstate",
        "eq5_ratio",
        "estimate_expectation",
        "estimate_pair_prob",
        "eval_eq10",
        "eval_eq6",
        "eval_eq7",
        "eval_eq8",
        "grid_oracle",
        "hidden_marginal",
        "lhs16",
        "lhs18",
        "load_config",
        "maximize",
        "parse_config",
        "quantum_pair_prob",
        "run_ensemble",
        "run_two_series",
        "state_from_bloch",
        "two_series_estimate",
    ]


# every name README says is no longer defined, as a dotted path under seqbell
REMOVED = [
    "qubit.measure",
    "qubit.collapse",
    "qubit.orthonormal_frame",
    "inequalities.quantum_expectation",
    "lhv.hidden_marginals",
    "qubit.Outcome.sign",
    "engine.RunCountTable.__add__",
    "lhv.HiddenCountTable.__add__",
    "lhv.HiddenTriple",
    "lhv.ALL_TRIPLES",
    "lhv.TripleDistribution.uniform",
    "lhv.TripleDistribution.point_mass",
    "lhv.TripleDistribution.from_mapping",
    "lhv.TripleDistribution.as_mapping",
    "lhv.TripleDistribution.__eq__",
    "lhv.TripleDistribution.__hash__",
    "lhv.TripleDistribution.__reduce__",
    "lhv._rebuild_triple_distribution",
    "lhv.HiddenCountTable.total",
    "lhv.HiddenCountTable.zero",
    "lhv.HiddenCountTable.from_mapping",
    "lhv.HiddenCountTable.count",
    "lhv.HiddenCountTable.pair_marginals",
    "engine.RunCountTable.pair_marginal_counts",
    "inequalities.eval_eq4",
    "qubit.Direction.__neg__",
    "engine.EnsembleResult.n_runs",
    "qubit.azimuth_about",
]

# every name README says has moved to inequalities, as its old dotted path
MOVED = [
    "engine.Estimate",
    "engine.UNDEFINED_ESTIMATE",
    "engine.estimate_pair_prob",
    "engine.estimate_expectation",
    "engine.two_series_estimate",
    "lhv.check_count_inequality",
]


@pytest.mark.parametrize("path", REMOVED)
def test_removed_name_stays_gone_and_listed(path):
    module, *attrs, name = path.split(".")
    owner = importlib.import_module(f"seqbell.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    # vars, not hasattr: object itself defines __eq__ and __hash__
    assert name not in vars(owner)
    assert name not in seqbell.__all__
    assert f"`{path}`" in README.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", MOVED)
def test_moved_name_is_defined_only_in_inequalities(path):
    module, name = path.split(".")
    assert name not in vars(importlib.import_module(f"seqbell.{module}"))
    assert name in vars(inequalities)
    if name in seqbell.__all__:
        assert getattr(seqbell, name) is getattr(inequalities, name)
    assert f"`{path}`" in README.read_text(encoding="utf-8")


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", ["engine", "lhv"])
def test_sampler_and_model_make_no_estimate_or_verdict(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "reporting"] == []
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert used.isdisjoint({"InequalityReport", "DEFAULT_SIGMA", "Estimate", "undefined_report"})
    statistics = _top_level_names(ast.parse((SRC / "inequalities.py").read_text(encoding="utf-8")))
    defined = _top_level_names(tree)
    assert defined.isdisjoint(statistics)
    assert defined.isdisjoint({"_PAIR_MASKS", "_MARGINAL_CELLS", "_LHV_FOLD"})


def test_readme_config_section_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Config files") :]
    section = section[: section.index("\n## ")]
    # an example line starts with each key, or with a direction's name and a
    # component; the eight weight keys match as one lhv.weights. pattern
    patterns = {
        r"lhv\.weights\." if key.name.startswith("lhv.weights.") else re.escape(key.name) + "[ .=]"
        for key in KEYS
    }
    assert [p for p in sorted(patterns) if not re.search("^" + p, section, re.M)] == []
