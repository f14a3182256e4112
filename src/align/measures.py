"""Task-success measures: submission error, learning gain, team summaries."""

from __future__ import annotations

from typing import NamedTuple

from .corpus import HUMAN_SPEAKERS, MAX_SCORE, TeamCorpus


def submission_error(cost: float, optimal_cost: float) -> float:
    """Scaled distance of a submitted solution from the optimal cost."""
    if optimal_cost <= 0:
        raise ValueError("optimal_cost must be positive")
    if cost < optimal_cost:
        raise ValueError(f"cost {cost} below optimal {optimal_cost}: impossible spanning solution")
    return (cost - optimal_cost) / optimal_cost


def team_error(submission_errors: list[float]) -> float:
    """Lowest submission error: the team's closest solution to optimal."""
    if not submission_errors:
        raise ValueError("team submitted no solutions")
    return min(submission_errors)


def relative_learning_gain(pre: float, post: float) -> float:
    """Test-score change normalised by the margin of improvement or decline.

    (post-pre)/(MAX_SCORE-pre) on improvement, (post-pre)/pre on decline.
    A perfect pre-test with no change has no margin to improve: gain 0.
    """
    if not 0 <= pre <= MAX_SCORE or not 0 <= post <= MAX_SCORE:
        raise ValueError(f"scores must lie in 0..{MAX_SCORE}")
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
    """Compute the dialogue-level success measures for one team."""
    errors = [submission_error(s.cost, optimal_cost) for s in corpus.submits]
    gains = {}
    for speaker in HUMAN_SPEAKERS:
        scores = corpus.score_for(speaker)
        if scores is None:
            raise ValueError(f"team {corpus.team}: no test scores for speaker {speaker}")
        gains[speaker] = relative_learning_gain(scores.pre, scores.post)
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
    """Analysis window shared by all teams: the quickest team's duration."""
    if not team_durations:
        raise ValueError("no team durations")
    return min(team_durations)
