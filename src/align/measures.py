"""Task-success measures: submission error, learning gain, team summaries."""

from __future__ import annotations

from typing import NamedTuple

from .corpus import MAX_SCORE, TeamCorpus


def submission_error(cost: float, optimal_cost: float) -> float:
    """Scaled distance of a submitted solution from the optimal cost; `cost` is a
    submit that `load_event_log` or `load_corpus` accepted, so at least `optimal_cost`."""
    return (cost - optimal_cost) / optimal_cost


def team_error(submission_errors: list[float]) -> float:
    """Lowest submission error: the team's closest solution to optimal; `check_teams`
    makes every team submit at least once."""
    return min(submission_errors)


def relative_learning_gain(pre: float, post: float) -> float:
    """Test-score change normalised by the margin of improvement or decline.

    (post-pre)/(MAX_SCORE-pre) on improvement, (post-pre)/pre on decline.
    A perfect pre-test with no change has no margin to improve: gain 0.
    Both scores lie in 0..MAX_SCORE, as `load_test_scores` and `load_corpus` check.
    """
    if post >= pre:
        if pre == MAX_SCORE:
            return 0.0
        return (post - pre) / (MAX_SCORE - pre)
    return (post - pre) / pre


def team_learning(learn_a: float, learn_b: float) -> float:
    """Average relative learning gain of the two interlocutors."""
    return (learn_a + learn_b) / 2.0


class TeamSuccess(NamedTuple):
    team: int
    error: float
    learn: float
    learn_a: float
    learn_b: float
    duration: float
    n_submissions: int
    n_turns: int


def team_success(corpus: TeamCorpus, optimal_cost: float) -> TeamSuccess:
    """Compute the dialogue-level success measures for one team that `check_teams`
    accepted: one test-score row per interlocutor and at least one submit."""
    errors = [submission_error(s.cost, optimal_cost) for s in corpus.submits]
    gains = {s.speaker: relative_learning_gain(s.pre, s.post) for s in corpus.scores}
    return TeamSuccess(
        team=corpus.team,
        error=team_error(errors),
        learn=team_learning(gains["A"], gains["B"]),
        learn_a=gains["A"],
        learn_b=gains["B"],
        duration=corpus.duration,
        n_submissions=len(corpus.submits),
        n_turns=corpus.n_turns,
    )


def learning_groups(successes: list[TeamSuccess]) -> tuple[set[int], set[int]]:
    """Split teams into positive (learn > 0) and non-positive learning groups."""
    positive = {s.team for s in successes if s.learn > 0}
    other = {s.team for s in successes if s.learn <= 0}
    return positive, other


def common_window(team_durations: list[float]) -> float:
    """Analysis window shared by all teams: the quickest team's duration; a corpus
    that `check_teams` accepted has at least one team."""
    return min(team_durations)
