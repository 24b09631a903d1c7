"""E4 — trustworthy indexing: timely search without keyword leakage.

Paper claim (§3): timely access requires indexing, but "the mere
existence of a word in a document can leak information" (the Cancer
example); "the index itself must be trustworthy, and confidential".
Expected shape: the trustworthy index answers queries with a constant-
factor slowdown over the plaintext index, leaks no terms to a raw
device scan, and detects posting-list tampering; the plaintext index is
faster and leaks everything.
"""

import time

from benchmarks.common import new_clock, print_table
from repro.index.inverted import InvertedIndex
from repro.index.trustworthy import CHUNK_CAPACITY, TrustworthyIndex
from repro.workload.generator import WorkloadGenerator

MASTER = bytes(range(32))
N_DOCS = 80
N_QUERIES = 200


def _build_corpus():
    generator = WorkloadGenerator(41, new_clock())
    generator.create_population(15)
    docs = []
    for i in range(N_DOCS):
        g = generator.note_record(phi_in_text_probability=0.0)
        docs.append((g.record.record_id, g.record.body["text"], g.conditions[0].split()[0]))
    return docs


def test_e4_index_latency_and_leakage(benchmark):
    docs = _build_corpus()
    terms = sorted({term for _, _, term in docs})

    plain = InvertedIndex()
    trust = TrustworthyIndex(MASTER)
    for doc_id, text, _ in docs:
        plain.add_document(doc_id, text)
        trust.add_document(doc_id, text)

    def query_trustworthy():
        for term in terms:
            trust.search(term)

    benchmark.pedantic(query_trustworthy, rounds=3, iterations=1)

    # latency comparison
    start = time.perf_counter()
    for i in range(N_QUERIES):
        plain.search(terms[i % len(terms)])
    plain_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(N_QUERIES):
        trust.search(terms[i % len(terms)])
    trust_seconds = time.perf_counter() - start

    # correctness parity
    for term in terms:
        assert plain.search(term) == trust.search(term), term

    # leakage probe
    plain_leaks = sum(
        term.encode() in plain.device.raw_dump() for term in terms
    )
    trust_leaks = sum(
        term.encode() in trust.device.raw_dump() for term in terms
    )

    print_table(
        "E4 keyword index: latency and leakage",
        ["index", "query us/op", "slowdown", "terms leaked to raw device"],
        [
            ["plaintext", f"{plain_seconds / N_QUERIES * 1e6:8.1f}", "1.0x",
             f"{plain_leaks}/{len(terms)}"],
            ["trustworthy", f"{trust_seconds / N_QUERIES * 1e6:8.1f}",
             f"{trust_seconds / plain_seconds:.1f}x", f"{trust_leaks}/{len(terms)}"],
        ],
    )
    assert plain_leaks == len(terms)  # the paper's warning, demonstrated
    assert trust_leaks == 0
    assert trust_seconds > plain_seconds  # security costs something


def test_e4_posting_list_tamper_detection(benchmark):
    docs = _build_corpus()
    index = TrustworthyIndex(MASTER)
    for doc_id, text, _ in docs[:20]:
        index.add_document(doc_id, text)
    # enough documents sharing a term that its list seals a chunk: only
    # sealed chunks are on the device to strike
    for n in range(CHUNK_CAPACITY):
        index.add_document(f"shared-{n:02d}", "followup visit")

    def verify():
        return index.verify()

    benchmark.pedantic(verify, rounds=3, iterations=1)
    assert index.verify() == []
    # flip a byte inside one sealed chunk of a posting list
    some_trapdoor = sorted(index.chunk_extents())[0]
    meta = index.chunk_extents()[some_trapdoor][0]
    (byte,) = index.device.raw_read(meta.device_offset + meta.size // 2, 1)
    index.device.raw_write(meta.device_offset + meta.size // 2, bytes([byte ^ 0xFF]))
    failures = index.verify()
    assert failures, "tampered posting list must be detected"
    print(f"\nE4b: tampering detected in {len(failures)} posting list(s)")
