"""The experiment registry: every record's scales and flags fit its
function, and the CLI lists the records in the registry's order."""

import inspect

import pytest

from repro.harness.registry import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_both_scales_bind_to_the_experiment_function(name):
    experiment = EXPERIMENTS[name]
    signature = inspect.signature(experiment.fn)
    signature.bind(**experiment.quick)
    signature.bind(**experiment.full)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_flag_sets_a_keyword_of_the_experiment_function(name):
    experiment = EXPERIMENTS[name]
    keywords = set(experiment.flags.values())
    assert keywords <= set(inspect.signature(experiment.fn).parameters)


def test_a_reshape_shares_its_sources_scales_and_flags():
    for experiment in EXPERIMENTS.values():
        if experiment.reshapes is not None:
            source = EXPERIMENTS[experiment.reshapes[0]]
            assert (experiment.quick, experiment.full, experiment.flags) == (
                source.quick, source.full, source.flags
            )


def test_list_prints_the_registry_in_order(capsys):
    from repro.harness.__main__ import main

    assert main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == list(EXPERIMENTS)
