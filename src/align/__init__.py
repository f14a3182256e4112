"""Automatic verbal and behavioural alignment measures for situated dialogues.

`from align import X` imports only the submodule that owns X (PEP 562). No
submodule imports numpy or scipy: only a p-value loads scipy's tails, and
numpy with them.
"""

import importlib

_EXPORTS = {
    "corpus": """ActionEvent Corpus EditEvent InputError Network NetworkNode SubmitEvent
        TeamCorpus TestScores Utterance UtteranceRow assemble_corpus build_action_stream
        check_teams load_corpus load_event_log load_network load_test_scores load_transcript
        relative_time save_corpus tokenize""",
    "instructions": """Instruction MatchRecord check_match grouped_records
        match_instructions_to_actions match_mismatch_times recognise_instructions""",
    "measures": """TeamSuccess common_window learning_groups relative_learning_gain
        submission_error team_error team_learning team_success""",
    "report": "ANALYSES HypothesisReport Pipeline collaborative_period emit",
    "routines": "Routine TokenEvents extract_routines filter_task_routines token_events",
    "stats": "TestResult interpret_rho kruskal_wallis mann_whitney_delta spearman",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
