import numpy as np
import pytest

from corrnet.embeddings import (EmbeddingError, embed_sequence, load_embeddings,
                                make_table)


def write(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_with_header(tmp_path):
    path = write(tmp_path, "2 3\njob 1 0 0\nage 0 1 0\n")
    table = load_embeddings(path)
    assert table.dim == 3
    assert set(table.vectors) == {"job", "age"}


def test_load_without_header(tmp_path):
    path = write(tmp_path, "job 1 0 0\nage 0 1 0\n")
    table = load_embeddings(path)
    assert table.dim == 3
    np.testing.assert_array_equal(table.vectors["job"], [1, 0, 0])


def test_mean_vector(tmp_path):
    path = write(tmp_path, "a 1 0\nb 0 1\n")
    table = load_embeddings(path)
    np.testing.assert_allclose(table.mean_vector, [0.5, 0.5])


def test_vocab_filter(tmp_path):
    path = write(tmp_path, "job 1 0\nage 0 1\nwage 1 1\n")
    table = load_embeddings(path, vocab_filter={"job"})
    assert set(table.vectors) == {"job"}
    np.testing.assert_allclose(table.mean_vector, [1, 0])


def test_inconsistent_dim(tmp_path):
    path = write(tmp_path, "a 1 0\nb 0 1 2\n")
    with pytest.raises(EmbeddingError, match=":2"):
        load_embeddings(path)


def test_bad_component(tmp_path):
    with pytest.raises(EmbeddingError, match="unparseable"):
        load_embeddings(write(tmp_path, "a 1 zz\n"))


@pytest.mark.parametrize("text, message", [
    ("a 1 0\nb 0 nan\n", ":2: non-finite vector component"),
    ("2 2\na 1 0\nb -inf 1\n", ":3: non-finite vector component"),
    ("a 1 0\nb 0 1\na 0 0\n", ":3: duplicated token 'a'"),
], ids=["nan", "inf", "duplicate"])
def test_bad_row_names_its_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}{message}"


def test_rows_outside_filter_are_not_checked(tmp_path):
    path = write(tmp_path, "a 1 0\nb nan 1\nb 0 1\n")
    assert set(load_embeddings(path, vocab_filter={"a"}).vectors) == {"a"}


def test_empty_file(tmp_path):
    with pytest.raises(EmbeddingError, match="no vectors"):
        load_embeddings(write(tmp_path, ""))


def test_line_order_insensitive(tmp_path):
    t1 = load_embeddings(write(tmp_path, "a 1 0\nb 0 1\n"))
    t2 = load_embeddings(write(tmp_path, "b 0 1\na 1 0\n"))
    assert set(t1.vectors) == set(t2.vectors)
    for tok in t1.vectors:
        np.testing.assert_array_equal(t1.vectors[tok], t2.vectors[tok])


class TestEmbedSequence:
    table = make_table({"job": np.array([1.0, 0.0]), "age": np.array([0.0, 1.0])})

    def test_lookup(self):
        out = embed_sequence(["job"], self.table)
        np.testing.assert_array_equal(out[0], [1, 0])

    def test_mean_policy(self):
        out = embed_sequence(["zzqx"], self.table)
        np.testing.assert_allclose(out[0], [0.5, 0.5])

    def test_length_preserved(self):
        toks = ["job", "zzqx", "age", "qqq"]
        assert len(embed_sequence(toks, self.table)) == len(toks)

    def test_returns_the_tables_own_arrays(self):
        """Every element is the table's array itself, never a copy: the
        traced benchmark (perfbench/tracing._seq_key) names a token by the
        id() of its vector, so a copy would make every encode look new."""
        out = embed_sequence(["age", "zzqx", "job", "zzqx"], self.table)
        assert out[0] is self.table.vectors["age"]
        assert out[1] is self.table.mean_vector
        assert out[2] is self.table.vectors["job"]
        assert out[3] is self.table.mean_vector

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            embed_sequence([], self.table)
