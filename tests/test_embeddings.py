import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import apply_byte_edits, byte_edits
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


def test_empty_file(tmp_path):
    with pytest.raises(EmbeddingError, match="no vectors"):
        load_embeddings(write(tmp_path, ""))


def test_line_order_insensitive(tmp_path):
    t1 = load_embeddings(write(tmp_path, "a 1 0\nb 0 1\n"))
    t2 = load_embeddings(write(tmp_path, "b 0 1\na 1 0\n"))
    assert set(t1.vectors) == set(t2.vectors)
    for tok in t1.vectors:
        np.testing.assert_array_equal(t1.vectors[tok], t2.vectors[tok])


@pytest.mark.parametrize("text, message", [
    ("a 1 0\nb\nc 0 1\n", ":2: expected 2 components, got 0"),
    ("a 1 0\nb 0 1 2\nc 1 1\n", ":2: expected 2 components, got 3"),
    ("a 1 0\nb 0 1\nc 0 zz\n", ":3: unparseable vector component"),
    ("a 1 0\nb 0 1\nc 0 1_0\n", ":3: unparseable vector component"),
    ("3 2\na 1 0\nb 0 1\n", ":1: header gives 3 vectors, the file has 2"),
    ("2 3\na 1 0\nb 0 1\n", ":1: header gives 3 components, the vectors have 2"),
], ids=["token-only-row", "wide-row", "unparseable", "underscore-digits", "truncated",
        "header-dim"])
def test_bad_file_names_its_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}{message}"


def test_invalid_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes(b"3 2\ncat 0.1 0.2\ndog 0.3 0.4\nd\xa6g 0.5 0.6\n")
    with pytest.raises(EmbeddingError, match=f"^{re.escape(str(path))}:4: not valid UTF-8$"):
        load_embeddings(path)


@seed(22)
@settings(max_examples=40, deadline=None)
@given(edits=byte_edits)
def test_mutated_file_loads_or_names_the_file(tmp_path_factory, edits):
    path = write(tmp_path_factory.mktemp("vectors"),
                 "3 2\ncafé 0.5 -1.25\nüber 2e-3 4\nnaïve -0.75 1.5\n")
    apply_byte_edits(path, edits)
    try:
        load_embeddings(path)
    except EmbeddingError as exc:
        assert str(exc).startswith(f"{path}")


def test_hash_token_is_a_word(tmp_path):
    table = load_embeddings(write(tmp_path, "#hashtag 1 0\n# 0 1\n"))
    assert list(table.vectors) == ["#hashtag", "#"]
    np.testing.assert_array_equal(table.vectors["#hashtag"], [1, 0])


def test_vectors_are_rows_of_one_matrix(tmp_path):
    table = load_embeddings(write(tmp_path, "a 1 0\nb 0 1\nc 1 1\n"))
    matrix = table.vectors["a"].base
    assert matrix.shape == (3, 2)
    assert all(v.base is matrix for v in table.vectors.values())


def reference_load(text):
    """The loader's contract, one line at a time: float() of each component,
    blank lines and a line-1 "<count> <dim>" header skipped."""
    tokens, rows = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or (lineno == 1 and len(fields) == 2 and all(f.isdigit() for f in fields)):
            continue
        tokens.append(fields[0])
        rows.append([float(v) for v in fields[1:]])
    return tokens, rows


FORMATS = [repr, "%.17g".__mod__, "%.4f".__mod__, "%e".__mod__]
spaces = st.text(alphabet=" \t", min_size=1, max_size=3)


@st.composite
def vector_files(draw):
    dim = draw(st.integers(1, 6))
    tokens = draw(st.lists(st.text(alphabet="ab#xé_", min_size=1, max_size=4),
                           min_size=1, max_size=8, unique=True))
    lines = []
    for token in tokens:
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=dim, max_size=dim))
        fields = [token] + [draw(st.sampled_from(FORMATS))(v) for v in values]
        line = draw(st.sampled_from(["", " ", "\t"])) + draw(spaces).join(fields)
        lines += [line + draw(st.sampled_from(["", " ", "\t "]))] + draw(
            st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    if draw(st.booleans()):
        lines.insert(0, f"{len(tokens)} {dim}")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=vector_files())
def test_loader_matches_per_line_reference_bitwise(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("vec") / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    tokens, rows = reference_load(text)
    # The mean of values near the float64 maximum can overflow; the loader
    # then rejects the file.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(np.array(rows), axis=0)
    if not np.isfinite(mean).all():
        with pytest.raises(EmbeddingError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}: the mean of the loaded vectors is not finite"
        return
    table = load_embeddings(path)
    assert list(table.vectors) == tokens
    for token, row in zip(tokens, rows):
        assert table.vectors[token].tobytes() == np.array(row).tobytes()
    assert table.mean_vector.tobytes() == mean.tobytes()


def test_mean_that_overflows_is_rejected(tmp_path):
    """Finite rows whose mean overflows: an inf mean vector would reach every
    out-of-vocabulary token. Neither loader warns."""
    path = write(tmp_path, "a 1 8.98846567431158e+307\nb 2 8.98846567431158e+307\n")
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: the mean of the loaded vectors is not finite"
    rows = {"a": np.array([1.0, 8.98846567431158e+307]),
            "b": np.array([2.0, 8.98846567431158e+307])}
    with pytest.raises(EmbeddingError) as exc:
        make_table(rows)
    assert str(exc.value) == "the mean of the loaded vectors is not finite"


def test_load_peak_memory_stays_near_the_matrix(tmp_path):
    """A 5,000 x 300 load allocates at most 1.5x its matrix at its peak: no
    whole-file string, no per-row arrays stacked into a second copy."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((5000, 300))
    path = tmp_path / "vec.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % matrix.shape)
        for i, row in enumerate(matrix):
            fh.write(f"w{i:05d} " + " ".join("%.6f" % v for v in row) + "\n")
    tracemalloc.start()
    try:
        table = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.vectors) == 5000
    assert peak <= 1.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f}x the matrix"


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
