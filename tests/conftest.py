import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # oracles / synth helpers

from sentimix.corpus import Document
from synth import build_imdb_tree

# reproducible CI: property tests replay the same example corpus every run
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def make_docs(token_lists, labels=None, split="train"):
    labels = labels or ["positive"] * len(token_lists)
    return [Document(id=f"doc{i:03d}", raw_text=" ".join(toks), tokens=tuple(toks),
                     label=lab, split=split)
            for i, (toks, lab) in enumerate(zip(token_lists, labels))]


def doc_logprob(model, tokens) -> float:
    """One document's log-probability in nats, scored on its own: its tokens
    and the end marker, plus the OOV penalty per unknown word when one is set."""
    return float(model.doc_logprobs([model.vocab.encode(tokens)])[0])


def log_ratio(clf, tokens) -> tuple[float, float, float]:
    """(log p_pos, log p_neg, prior-weighted log ratio) of one document."""
    lp, ln = doc_logprob(clf.pos_model, tokens), doc_logprob(clf.neg_model, tokens)
    return lp, ln, lp - ln + clf.log_prior_pos - clf.log_prior_neg


def classify_generative(clf, tokens) -> tuple[str, float]:
    """Positive iff the prior-weighted likelihood ratio exceeds 1; ties negative."""
    ratio = log_ratio(clf, tokens)[2]
    return ("positive" if ratio > 0 else "negative"), ratio


@pytest.fixture(scope="session")
def imdb_tree(tmp_path_factory):
    """Synthetic IMDB directory layout, 40 files per leaf."""
    root = tmp_path_factory.mktemp("imdb") / "aclImdb"
    return build_imdb_tree(root, n_per_leaf=40, seed=11)
