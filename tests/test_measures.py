"""Task-success measures: equation fixtures and properties."""

from __future__ import annotations

import random

import pytest

from align.measures import (
    common_window,
    learning_groups,
    relative_learning_gain,
    submission_error,
    team_error,
    team_learning,
    team_success,
    TeamSuccess,
)
from _builders import make_team, network


# --- submission error -----------------------------------------------------------

def test_submission_error_identity_and_doubling():
    assert submission_error(12, 12) == 0.0
    assert submission_error(24, 12) == 1.0


def test_submission_error_191_percent():
    assert submission_error(291, 100) == pytest.approx(1.91)


def test_submission_error_scale_invariant():
    rng = random.Random(1)
    for _ in range(100):
        optimal = rng.randrange(5, 50)
        cost = optimal + rng.randrange(0, 50)
        k = rng.uniform(0.1, 10)
        assert submission_error(cost * k, optimal * k) == \
            pytest.approx(submission_error(cost, optimal))


# --- team error -----------------------------------------------------------------

def test_team_error_takes_minimum():
    assert team_error([1.91, 1.09, 0.0]) == 0.0
    assert team_error([0.30]) == 0.30
    assert team_error([0.05, 0.05]) == 0.05


def test_team_error_requires_submissions():
    with pytest.raises(ValueError):
        team_error([])


def test_team_error_monotone_under_appends():
    rng = random.Random(2)
    errors = []
    best = float("inf")
    for _ in range(50):
        errors.append(rng.uniform(0, 3))
        current = team_error(errors)
        assert current <= best or best == float("inf")
        best = min(best, current)
        assert current == best


# --- relative learning gain -------------------------------------------------------

def test_gain_fixtures():
    assert relative_learning_gain(5, 5) == 0.0
    assert relative_learning_gain(6, 8) == 0.5
    assert relative_learning_gain(8, 4) == -0.5


def test_gain_perfect_pretest_convention():
    assert relative_learning_gain(10, 10) == 0.0


def test_gain_bounded_for_all_score_pairs():
    for pre in range(11):
        for post in range(11):
            gain = relative_learning_gain(pre, post)
            assert -1.0 <= gain <= 1.0


# --- team learning and groups -----------------------------------------------------

def test_team_learning_mean():
    assert team_learning(0.25, 0.25) == 0.25
    assert team_learning(1, -1) == 0.0
    assert team_learning(0.4, 0.0) == pytest.approx(0.2)


def _success(team, learn):
    return TeamSuccess(team=team, error=0.0, learn=learn, learn_a=learn, learn_b=learn,
                       duration=100.0, n_submissions=1, n_turns=1)


def test_learning_groups_split_on_positive():
    successes = [_success(7, 0.2), _success(9, 0.1), _success(8, 0.0), _success(18, -0.5)]
    positive, other = learning_groups(successes)
    assert positive == {7, 9}
    assert other == {8, 18}


def test_learning_groups_all_zero():
    positive, other = learning_groups([_success(1, 0.0), _success(2, 0.0)])
    assert positive == set()
    assert other == {1, 2}


def test_learning_groups_singleton():
    positive, _ = learning_groups([_success(3, 0.1)])
    assert positive == {3}


# --- common window ---------------------------------------------------------------

def test_common_window_minimum():
    assert common_window([600, 700]) == 600
    assert common_window([672.0]) == 672.0


def test_common_window_empty_errors():
    with pytest.raises(ValueError):
        common_window([])


# --- team_success integration -------------------------------------------------

def test_team_success_over_corpus():
    net = network()
    team = make_team(
        3, net,
        utterance_rows=[("A", 1.0, 2.0, "hello")],
        edit_rows=[(3.0, "add", "Zurich", "Bern"), (4.0, "add", "Zurich", "Gallen"),
                   (5.0, "add", "Basel", "Bern")],
        submit_rows=[(6.0, 24), (8.0, 12)],
        scores=(("A", 6, 8), ("B", 8, 4)),
    )
    success = team_success(team, net.optimal_cost)
    assert success.error == 0.0
    assert success.learn_a == 0.5
    assert success.learn_b == -0.5
    assert success.learn == 0.0
    assert success.duration == 8.0
    assert success.n_submissions == 2
    assert success.n_turns == 2  # three edits: one full turn plus one begun


def test_team_success_keys_gains_by_speaker_not_row_order():
    # a score file may list B before A; each gain still belongs to its speaker
    net = network()
    team = make_team(5, net, utterance_rows=[("A", 1.0, 2.0, "hello")],
                     submit_rows=[(3.0, 12)], scores=(("B", 8, 4), ("A", 6, 8)))
    success = team_success(team, net.optimal_cost)
    assert (success.learn_a, success.learn_b) == (0.5, -0.5)
