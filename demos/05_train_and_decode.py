"""Train the hierarchical summarizer on a toy corpus and decode from it.

The model here runs the full joint configuration: a separate query encoder,
learned document-importance ordering encodings, and decoder memory merged
from local and global encoder states.  A few hundred optimizer steps on
eight triplets is enough to watch it start copying summary phrasing.
"""

import tempfile

import numpy as np

from querysumm.data import build_qmdscnn
from querysumm.decoding import DecodeConfig, beam_search, greedy_decode
from querysumm.evaluation import evaluate
from querysumm.model import ModelConfig, SummModel, prepare_input
from querysumm.synthetic import make_articles
from querysumm.text import build_vocab, tokenize
from querysumm.training import TrainConfig, train

articles = make_articles(10, seed=3, min_paragraphs=2, max_paragraphs=3)
triplets = build_qmdscnn(articles, seed=3, k_retrieved=1)
train_set, val_set = triplets[:8], triplets[8:]

tokens = []
for t in triplets:
    tokens += [tokenize(t.query), tokenize(t.summary)] + [tokenize(d) for d in t.documents]
vocab = build_vocab(tokens, 300)
print(f"vocabulary: {len(vocab)} entries")

config = ModelConfig(
    vocab_size=len(vocab), d_model=64, ffn_hidden=256, heads=4,
    local_layers=2, global_layers=1, dropout=0.1,
    use_query_encoder=True, use_hierarchical_merge=True, use_ordering=True,
    max_doc_tokens=30, max_docs=3, max_summary_tokens=20,
)
model = SummModel(config, seed=0)
print(f"parameters: {model.parameter_count():,}")

with tempfile.TemporaryDirectory() as ckpt_dir:
    result = train(
        model,
        TrainConfig(steps=250, checkpoint_dir=ckpt_dir, batch_tokens=1024,
                    val_interval=125, seed=0, base_lr=2.0, warmup=200),
        train_set, val_set, vocab,
    )
    print(f"loss: {result.losses[0]:.3f} -> {result.losses[-1]:.3f} "
          f"over {result.steps_run} steps")
    print(f"best val ROUGE-L {result.best_score:.4f}")

    # Which documents does the ordering component consider important?
    inp = prepare_input(train_set[0], vocab, config)
    enc = model.encode(inp)
    print("document importance r:", np.round(enc.ordering.values, 3))

    greedy_cfg = DecodeConfig(beam=1, alpha=0.0, min_len=3, max_len=16)
    beam_cfg = DecodeConfig(beam=5, alpha=0.4, min_len=3, max_len=16, block_trigrams=True)
    print("\nquery:    ", train_set[0].query)
    print("reference:", train_set[0].summary[:72])
    print("greedy:   ", " ".join(vocab.decode(greedy_decode(model, enc, greedy_cfg))))
    print("beam 5:   ", " ".join(vocab.decode(beam_search(model, enc, beam_cfg))))

    report = evaluate(model, train_set, vocab, beam_cfg, mode="f1")
    print("\ntraining-set report after 250 steps:")
    print(report.format())
