"""Multi-paper correlation tables with model-predicted infilling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable
from .ensemble import Ensemble
from .neural import predict
from .training import embed_pairs

KIND_DIAGONAL = "D"
KIND_REPORTED = "R"
KIND_PREDICTED = "P"


@dataclass
class CorrelationTable:
    correlate_order: list[int]
    texts: list[str]
    values: np.ndarray   # (n, n), nan on the diagonal
    kinds: np.ndarray    # (n, n) of {"D", "R", "P"}
    infill_fraction: float


def build_table(corpus: Corpus, paper_ids: list[str], model,
                table: EmbeddingTable) -> CorrelationTable:
    """Assemble the symmetric correlation table over the papers' correlates.

    Rows/columns are the union of the papers' correlates, grouped by paper
    in input order (a correlate appearing in several papers is placed at its
    first paper). Cells with corpus findings are Reported (mean r over
    reports); every other off-diagonal cell is Predicted by the model.
    """
    ids: list[int] = []  # a, b of each of the papers' findings, in order
    for pid in paper_ids:
        try:
            code = corpus.paper_ids.index(pid)
        except ValueError:
            raise ValueError(f"unknown paper id {pid!r}") from None
        rows = np.flatnonzero(corpus.paper_code == code)
        ids += np.column_stack((corpus.a[rows], corpus.b[rows])).ravel().tolist()
    order = list(dict.fromkeys(ids))
    n = len(order)
    if n < 2:
        raise ValueError("selected papers contribute fewer than 2 correlates")

    # Cell k of the upper triangle, in row-major order, is (iu[k], ju[k]): the
    # pair of correlates ca[k], cb[k], with pair_rows key keys[k].
    iu, ju = np.triu_indices(n, 1)
    order_ids = np.array(order, dtype=np.int64)
    ca, cb = order_ids[iu], order_ids[ju]
    keys = corpus.pair_keys(ca, cb)
    found = list(map(corpus.pair_rows.get, keys.tolist()))
    reported = np.fromiter(map(bool, found), dtype=bool, count=len(found))
    # Reported cells keep np.mean's bits: its pairwise sum for several
    # reports, and 0.0 + r for one (which turns -0.0 into 0.0).
    means = [corpus.r[rows[0]] + 0.0 if len(rows) == 1 else np.mean(corpus.r[list(rows)])
             for rows in filter(None, found)]
    unreported = ~reported
    members = model.members if isinstance(model, Ensemble) else [model]
    pairs = np.column_stack((ca[unreported], cb[unreported]))
    cells = np.empty(len(keys))
    cells[reported] = means
    cells[unreported] = predict(members, embed_pairs(corpus, pairs, table), pairs).mean(axis=1)
    values = np.full((n, n), np.nan)
    values[iu, ju] = values[ju, iu] = cells
    kinds = np.full((n, n), KIND_DIAGONAL, dtype=object)
    kinds[iu, ju] = kinds[ju, iu] = np.where(reported, KIND_REPORTED, KIND_PREDICTED)
    return CorrelationTable(
        order, [corpus.correlates[c].raw_text for c in order],
        values, kinds, len(pairs) / len(keys))


def export_table(ct: CorrelationTable, prefix) -> tuple[str, str]:
    """Write <prefix>.values.tsv and <prefix>.mask.tsv.

    Both files carry a header row and column of correlate texts; values are
    written to 6 decimals, diagonal cells are empty.
    """
    values_path = f"{prefix}.values.tsv"
    mask_path = f"{prefix}.mask.tsv"
    # Each distinct float64 bit pattern is formatted once; a build_table
    # table holds every value twice, and -0.0 keeps its own pattern.
    values = np.asarray(ct.values, dtype=np.float64)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    formatted = np.array(["%.6f" % v for v in distinct.view(np.float64).tolist()], dtype=object)
    rows = formatted[inverse.reshape(values.shape)].tolist()
    header = "\t" + "\t".join(ct.texts) + "\n"
    with open(values_path, "w", encoding="utf-8") as vf, \
            open(mask_path, "w", encoding="utf-8") as mf:
        vf.write(header)
        mf.write(header)
        for i, (text, cells) in enumerate(zip(ct.texts, rows)):
            cells[i] = ""
            vf.write(text + "\t" + "\t".join(cells) + "\n")
            mf.write(text + "\t" + "\t".join(ct.kinds[i]) + "\n")
    return values_path, mask_path
