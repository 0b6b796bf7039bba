"""Tests for the corpus, chunking, embeddings, vector index and extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.cluster import make_cluster
from repro.corpus import render_hardware_doc, render_manual, render_parameter_section
from repro.llm.client import LLMClient
from repro.rag import VectorIndex, chunk_text, embed_text
from repro.rag.chunking import Chunk
from repro.rag.embeddings import EMBEDDING_DIM, cosine_similarity, tokenize_words
from repro.rag.extraction import ParameterExtractor

LUSTRE = get_backend("lustre")


class TestManual:
    def test_full_doc_params_have_range_lines(self):
        for spec in LUSTRE.registry.values():
            if spec.writable and spec.doc == "full":
                section = render_parameter_section(spec)
                assert "Valid range:" in section, spec.name
                assert "Definition:" in section

    def test_partial_doc_params_lack_range(self):
        spec = LUSTRE.registry["ldlm.lru_max_age"]
        section = render_parameter_section(spec)
        assert section
        assert "Valid range:" not in section

    def test_undocumented_params_absent(self):
        manual = render_manual()
        assert "ping_interval" not in manual

    def test_readonly_params_absent(self):
        assert "kbytestotal" not in render_manual()

    def test_dependent_ranges_use_expression_syntax(self):
        section = render_parameter_section(LUSTRE.registry["llite.max_read_ahead_per_file_mb"])
        assert "(expression: llite.max_read_ahead_mb / 2)" in section

    def test_manual_has_filler_chapters(self):
        manual = render_manual()
        assert "PtlRPC" in manual
        assert "Recovery" in manual
        assert len(manual) > 10_000

    def test_hardware_doc_facts(self):
        doc = render_hardware_doc(make_cluster())
        assert "n_ost = 5" in doc
        assert "system_memory_mb = 200704" in doc


class TestChunking:
    def test_short_text_single_chunk(self):
        chunks = chunk_text("hello world")
        assert len(chunks) == 1
        assert chunks[0].text == "hello world"

    def test_empty_text(self):
        assert chunk_text("") == []

    def test_chunks_cover_all_words(self):
        text = " ".join(f"word{i}" for i in range(5000))
        chunks = chunk_text(text, chunk_tokens=256, overlap_tokens=16)
        seen = set()
        for chunk in chunks:
            seen.update(chunk.text.split())
        assert seen == set(text.split())

    def test_overlap_between_consecutive_chunks(self):
        text = " ".join(f"word{i}" for i in range(5000))
        chunks = chunk_text(text, chunk_tokens=256, overlap_tokens=16)
        assert len(chunks) > 2
        for a, b in zip(chunks, chunks[1:]):
            tail = a.text.split()[-1]
            assert tail in b.text.split()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_text("x", chunk_tokens=4)
        with pytest.raises(ValueError):
            chunk_text("x", chunk_tokens=100, overlap_tokens=100)

    @settings(max_examples=25, deadline=None)
    @given(n_words=st.integers(min_value=1, max_value=3000))
    def test_reconstruction_property(self, n_words):
        text = " ".join(f"w{i}" for i in range(n_words))
        chunks = chunk_text(text, chunk_tokens=128, overlap_tokens=8)
        # Chunks must be in order and jointly cover every word index.
        covered = set()
        for chunk in chunks:
            words = chunk.text.split()
            covered.update(range(chunk.start_word, chunk.start_word + len(words)))
        assert covered == set(range(n_words))


class TestEmbeddings:
    def test_deterministic(self):
        a = embed_text("lustre stripe size tuning")
        b = embed_text("lustre stripe size tuning")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        vec = embed_text("some technical text about file systems")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_is_zero(self):
        assert np.linalg.norm(embed_text("")) == 0.0

    def test_dimension(self):
        assert embed_text("x").shape == (EMBEDDING_DIM,)

    def test_similar_texts_score_higher(self):
        query = embed_text("How do I use the parameter statahead_max?")
        relevant = embed_text(
            "The statahead_max parameter controls attribute prefetch during "
            "directory scans."
        )
        irrelevant = embed_text(
            "Quota masters acquire and release block quota from slaves."
        )
        assert cosine_similarity(query, relevant) > cosine_similarity(query, irrelevant)

    def test_tokenizer_keeps_identifiers(self):
        words = tokenize_words("Set osc.max_rpcs_in_flight to 32!")
        assert "osc.max_rpcs_in_flight" in words


class TestVectorIndex:
    def test_retrieval_finds_parameter_chunk(self):
        index = VectorIndex.from_documents([render_manual()])
        hits = index.query("How do I use the parameter llite.statahead_max?", top_k=2)
        assert any("statahead_max" in h.chunk.text for h in hits)

    def test_scores_descending(self):
        index = VectorIndex.from_documents([render_manual()])
        hits = index.query("stripe size", top_k=4)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_empty_index(self):
        assert VectorIndex().query("anything") == []

    def test_top_k_validation(self):
        index = VectorIndex.from_documents(["some text"])
        with pytest.raises(ValueError):
            index.query("x", top_k=0)

    def test_chunk_ids_unique_across_documents(self):
        index = VectorIndex.from_documents(["alpha beta " * 300, "gamma delta " * 300])
        ids = [h.chunk.chunk_id for h in index.query("alpha gamma", top_k=len(index))]
        assert len(ids) == len(set(ids))

    def test_persistence_round_trip(self):
        index = VectorIndex.from_documents([render_manual()])
        clone = VectorIndex.loads(index.dumps())
        assert len(clone) == len(index)
        a = index.query("statahead", top_k=3)
        b = clone.query("statahead", top_k=3)
        assert [h.chunk.text for h in a] == [h.chunk.text for h in b]

    def test_add_empty(self):
        index = VectorIndex()
        index.add_chunks([])
        assert len(index) == 0


class TestExtractionPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        client = LLMClient("gpt-4o", seed=0)
        return ParameterExtractor(make_cluster(), client).run()

    def test_selects_exactly_the_13(self, result):
        assert sorted(result.selected_names) == sorted(LUSTRE.selected_parameter_names())

    def test_binary_parameters_excluded(self, result):
        assert "osc.checksums" in result.filtered_binary
        assert "llite.fast_read" in result.filtered_binary

    def test_undocumented_filtered_as_insufficient(self, result):
        assert "mdc.ping_interval" in result.filtered_insufficient
        assert "osc.idle_timeout" in result.filtered_insufficient

    def test_low_impact_filtered(self, result):
        assert "ldlm.lru_size" in result.filtered_low_impact
        assert "nrs.delay_min" in result.filtered_low_impact

    def test_descriptions_are_grounded_and_accurate(self, result):
        for extracted in result.selected:
            spec = LUSTRE.registry[extracted.name]
            assert extracted.grounded
            # The grounded description must carry the true definition text.
            head = " ".join(spec.description.split()[:6])
            assert head in extracted.description, extracted.name

    def test_dependent_ranges_preserved(self, result):
        per_file = next(
            p for p in result.selected if p.name == "llite.max_read_ahead_per_file_mb"
        )
        assert per_file.max_expr == "llite.max_read_ahead_mb / 2"
        mod = next(
            p for p in result.selected if p.name == "mdc.max_mod_rpcs_in_flight"
        )
        assert mod.max_expr == "mdc.max_rpcs_in_flight - 1"

    def test_defaults_extracted(self, result):
        by_name = {p.name: p for p in result.selected}
        assert by_name["osc.max_rpcs_in_flight"].default == 8
        assert by_name["llite.statahead_max"].default == 32

    def test_extraction_usage_recorded(self):
        client = LLMClient("gpt-4o", seed=0)
        ParameterExtractor(make_cluster(), client).run()
        usage = client.ledger.agent("extraction")
        assert usage.input_tokens > 10_000
        assert usage.output_tokens > 100


class TestConfigFileSurface:
    """DAOS-style parameter discovery from a configuration file (§4.2.2)."""

    def test_config_file_lists_writable_params(self):
        from repro.pfs.configfile import render_config_file, tunable_parameter_names

        text = render_config_file()
        names = tunable_parameter_names(text)
        assert "osc.max_rpcs_in_flight" in names
        assert "lov.version" not in names  # read-only entries absent
        assert len(names) >= 20

    def test_extraction_from_config_file_matches_proc_tree(self):
        from repro.pfs.configfile import render_config_file, tunable_parameter_names

        client = LLMClient("gpt-4o", seed=0)
        extractor = ParameterExtractor(make_cluster(), client)
        candidates = tunable_parameter_names(render_config_file())
        result = extractor.run(candidates=candidates)
        assert sorted(result.selected_names) == sorted(
            LUSTRE.selected_parameter_names()
        )
