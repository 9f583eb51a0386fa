import seqbell


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
        "ALL_TRIPLES",
        "Direction",
        "Disturbance",
        "EnsembleResult",
        "ExperimentConfig",
        "HiddenCountTable",
        "HiddenTriple",
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
