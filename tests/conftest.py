import pytest

from querysumm import autodiff as ad
from querysumm.data import Triplet, build_qmdscnn
from querysumm.model import ModelConfig, SummModel, prepare_input
from querysumm.synthetic import make_articles
from querysumm.text import build_vocab, tokenize


def corpus_tokens(triplets):
    out = []
    for t in triplets:
        out.append(tokenize(t.query))
        out.append(tokenize(t.summary))
        out.extend(tokenize(d) for d in t.documents)
    return out


@pytest.fixture(scope="session")
def small_triplets():
    articles = make_articles(10, seed=1, min_paragraphs=2, max_paragraphs=3)
    return build_qmdscnn(articles, seed=1, k_retrieved=1)


@pytest.fixture(scope="session")
def small_vocab(small_triplets):
    return build_vocab(corpus_tokens(small_triplets), 300)


@pytest.fixture
def released_grads(monkeypatch):
    """Gradient each node held when ``backward`` released it, keyed by the
    node; leaves keep theirs on ``.grad``."""
    grads = {}
    release = ad._release

    def keep(node):
        grads[node] = node.grad
        release(node)

    monkeypatch.setattr(ad, "_release", keep)
    return grads


def tiny_config(vocab_size, **kw):
    base = dict(
        vocab_size=vocab_size,
        d_model=16,
        ffn_hidden=32,
        heads=2,
        local_layers=1,
        global_layers=1,
        decoder_layers=1,
        dropout=0.0,
        max_doc_tokens=24,
        max_docs=3,
        max_summary_tokens=12,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def tiny_model(small_vocab):
    return SummModel(tiny_config(len(small_vocab)), seed=0)


@pytest.fixture(scope="session")
def tiny_inputs(small_triplets, small_vocab, tiny_model):
    return [prepare_input(t, small_vocab, tiny_model.config) for t in small_triplets]


def handmade_triplet(n_docs=3, doc_tokens=6, summary_tokens=4, tag="t"):
    """Fixed-size triplet whose token counts are exactly predictable."""
    words = "red blue green gold iron stone wood salt".split()
    docs = [
        " ".join(words[(i + j) % len(words)] for j in range(doc_tokens))
        for i in range(n_docs)
    ]
    summary = " ".join(words[:summary_tokens])
    return Triplet(
        query=f"{tag} report",
        documents=docs,
        summary=summary,
        meta={"source_id": tag, "origins": ["original-chunk"] * n_docs, "ranks": [None] * n_docs},
    )
