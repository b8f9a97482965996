"""Train on one source, evaluate transfer on another, recall-limited.

Mirrors the evaluation protocol for small human-written test sets: train on
a large augmented source (here: synthetic), optionally fine-tune, then
report word-limited ROUGE recall on the held-out target collection.  Also
shows 1:1 interleaving of two sources into a combined training set.
"""

import tempfile

from querysumm.data import build_qmdscnn, filter_qmdsir
from querysumm.decoding import DecodeConfig
from querysumm.evaluation import TransferSpec, interleave, transfer_pipeline
from querysumm.model import ModelConfig
from querysumm.synthetic import make_articles, make_ir_records
from querysumm.text import build_vocab, tokenize
from querysumm.training import TrainConfig

source_a = build_qmdscnn(make_articles(10, seed=4, min_paragraphs=2, max_paragraphs=3), seed=4, k_retrieved=1)
source_b, _ = filter_qmdsir(make_ir_records(10, seed=4, defect_rate=0.0))
target = build_qmdscnn(make_articles(4, seed=99, min_paragraphs=2, max_paragraphs=3), seed=99, k_retrieved=1)

combined = interleave(source_a, source_b, seed=4)
print(f"sources: {len(source_a)} + {len(source_b)} -> combined {len(combined)}")
print("combined head:", [t.meta.get("source_id") for t in combined[:4]])

tokens = []
for t in combined + target:
    tokens += [tokenize(t.query), tokenize(t.summary)] + [tokenize(d) for d in t.documents]
vocab = build_vocab(tokens, 400)

with tempfile.TemporaryDirectory() as workdir:
    spec = TransferSpec(
        # the query encoder is off, so the query heads the first document
        model_config=ModelConfig(
            vocab_size=len(vocab), d_model=32, ffn_hidden=64, heads=2,
            local_layers=1, global_layers=1, dropout=0.1,
            max_doc_tokens=24, max_docs=3, max_summary_tokens=16,
        ),
        train_config=TrainConfig(
            steps=60, checkpoint_dir=workdir, batch_tokens=768,
            val_interval=30, seed=4, base_lr=2.0, warmup=100,
        ),
        # word-limited recall evaluation with a wider beam
        decode_config=DecodeConfig(beam=4, alpha=0.4, min_len=3, max_len=16,
                                   block_trigrams=True),
        finetune_config=TrainConfig(
            steps=20, checkpoint_dir=workdir, batch_tokens=768,
            val_interval=10, seed=4, base_lr=1.0, warmup=50,
        ),
    )
    report, result = transfer_pipeline(
        spec, combined, source_a[:2], target, vocab,
        finetune_triplets=target[:2],
    )
    print(f"\ntrained {result.steps_run} steps (incl. fine-tune), "
          f"best val ROUGE-L {result.best_score:.4f}")
    print("\ntransfer report on the held-out target set:")
    print(report.format())
