"""Automatic verbal and behavioural alignment measures for situated dialogues."""

from .corpus import (
    ActionEvent,
    Corpus,
    EditEvent,
    InputError,
    Network,
    NetworkNode,
    SubmitEvent,
    TeamCorpus,
    TestScores,
    Utterance,
    assemble_corpus,
    build_action_stream,
    load_corpus,
    load_event_log,
    load_network,
    load_test_scores,
    load_transcript,
    relative_time,
    save_corpus,
    tokenize,
)
from .instructions import (
    Entity,
    Instruction,
    MatchRecord,
    check_match,
    grouped_records,
    match_instructions_to_actions,
    match_mismatch_times,
    recognise_entities,
    recognise_instructions,
)
from .measures import (
    TeamSuccess,
    common_window,
    learning_groups,
    relative_learning_gain,
    submission_error,
    team_error,
    team_learning,
    team_success,
)
from .report import (
    HypothesisReport,
    Pipeline,
    emit,
    run_h11,
    run_h12,
    run_h21,
    run_h22,
)
from .routines import (
    Routine,
    TokenEvents,
    collaborative_period,
    extract_routines,
    filter_task_routines,
    token_events,
)
from .stats import (
    TestResult,
    cliffs_delta,
    interpret_delta,
    interpret_rho,
    kruskal_wallis,
    mann_whitney_u,
    spearman,
)

__version__ = "0.1.0"
