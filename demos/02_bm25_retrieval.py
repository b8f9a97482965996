"""Okapi BM25 over an inverted chunk index.

Shows index construction, scoring of individual chunks, ranked retrieval
with own-article exclusion, and the shape of the scores.
"""

from querysumm.bm25 import build_index, score, top_k
from querysumm.data import chunk_article
from querysumm.synthetic import make_articles
from querysumm.text import tokenize

articles = make_articles(8, seed=1)
ordinals = []  # chunk id -> the chunk's place in its article
chunks = []
for art in articles:
    for chunk in chunk_article(art, seed=1):
        ordinals.append(chunk.ordinal)
        chunks.append((tokenize(chunk.text), art.id))
print(f"indexed {len(chunks)} chunks from {len(articles)} articles")

index = build_index(chunks)
avg_len = sum(len(tokens) for tokens, _ in chunks) / len(chunks)
print(f"chunks={index.norm.size}, avg_len={avg_len:.1f}, "
      f"vocabulary terms={len(index.postings)}")
# A chunk's id is its position in the indexed list.  Each chunk's article
# is a code into ``index.articles``, whose keys are in code order.
article_of = list(index.articles)

query = tokenize(articles[0].title)
print(f"\nquery: {query}")

ranked = top_k(index, query, k=6)
print("top chunks (any article):")
for cid in ranked:
    art_id = article_of[index.article_codes[cid]]
    print(f"  chunk {cid:3d} (article {art_id}, #{ordinals[cid]}) score {score(index, query, cid):.4f}")

# Retrieval for augmentation excludes the query's own article so the
# appended documents are genuinely new.
foreign = top_k(index, query, k=4, exclude_article=articles[0].id)
print("\ntop foreign chunks (own article excluded):")
for rank, cid in enumerate(foreign, 1):
    art_id = article_of[index.article_codes[cid]]
    print(f"  rank {rank}: chunk {cid} from {art_id}, score {score(index, query, cid):.4f}")

# Doubling a query term doubles its contribution: occurrences count.
term = next(tok for tok in query if tok in chunks[foreign[0]][0])
once = score(index, [term], foreign[0])
twice = score(index, [term, term], foreign[0])
print(f"\nscore with [{term!r}] = {once:.4f}; repeated twice = {twice:.4f}")
