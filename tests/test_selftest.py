"""The check registry behind `lapscat selftest` and `lapscat verify`."""

import pytest

from lapscat.selftest import REGISTRY

FAST = [
    "kernel_2d_value", "kernel_3d_closed_form", "kernel_gradient",
    "ellipse_perimeter", "containment", "screen_node_count",
    "probe_disk_weights", "log_rule_constants", "circle_single_layer_spectrum",
    "circle_hypersingular_spectrum", "definiteness_suite", "jump_relation",
    "gram_identity", "exterior_reproduction", "inverse_contract",
    "lambda_bound_estimation", "screen_compression", "data_operator_spectrum",
    "noise_determinism", "picard_top_mode", "inf_equals_picard",
    "indicator_dichotomy", "segmentation", "screen_arc_separation",
    "cosine_family_basics", "addition_identity", "sine_is_integrated_cosine",
    "operator_norm_bounds", "laplace_identity", "pulse_short_width_limit",
    "truncated_zero_perturbation", "lemma_constants", "truncation_bound",
    "ideal_data_decay", "cli_roundtrip",
]
FULL = [
    "circle_single_layer_oracle", "definiteness_suite", "jump_relation",
    "gram_identity", "exterior_reproduction", "time_domain_bounds",
]


def names(tier):
    return [name for name, _check, t in REGISTRY if t == tier]


def test_tiers_hold_the_selftest_and_verify_checks_in_order():
    assert {t for _name, _check, t in REGISTRY} == {"fast", "full"}
    assert names("fast") == FAST
    assert names("full") == FULL
    for tier in ("fast", "full"):
        assert len(set(names(tier))) == len(names(tier))


def test_each_entry_has_one_callable():
    # the benchmark's tracer wraps every callable element of an entry
    for entry in REGISTRY:
        assert len(entry) == 3
        assert sum(callable(x) for x in entry) == 1
        assert callable(entry[1])


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check, t in REGISTRY if t == "fast"]
)
def test_fast_check_passes_alone(check):
    passed, detail = check()
    assert passed, detail
