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
        if pid not in corpus.paper_index:
            raise ValueError(f"unknown paper id {pid!r}")
        rows = list(corpus.paper_index[pid])
        ids += np.column_stack((corpus.a[rows], corpus.b[rows])).ravel().tolist()
    order = list(dict.fromkeys(ids))
    n = len(order)
    if n < 2:
        raise ValueError("selected papers contribute fewer than 2 correlates")

    values = np.full((n, n), np.nan)
    kinds = np.full((n, n), KIND_DIAGONAL, dtype=object)
    unreported: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            rows = corpus.pair_rows.get(corpus.pair_key(order[i], order[j]))
            if rows:
                values[i, j] = values[j, i] = np.mean(corpus.r[list(rows)])
                kinds[i, j] = kinds[j, i] = KIND_REPORTED
            else:
                unreported.append((i, j))
    members = model.members if isinstance(model, Ensemble) else [model]
    pairs = [(order[i], order[j]) for i, j in unreported]
    means = predict(members, embed_pairs(corpus, pairs, table), pairs).mean(axis=1)
    for (i, j), val in zip(unreported, means.tolist()):
        values[i, j] = values[j, i] = val
        kinds[i, j] = kinds[j, i] = KIND_PREDICTED
    return CorrelationTable(
        order, [corpus.correlates[c].raw_text for c in order],
        values, kinds, len(unreported) / (n * (n - 1) // 2))


def export_table(ct: CorrelationTable, prefix) -> tuple[str, str]:
    """Write <prefix>.values.tsv and <prefix>.mask.tsv.

    Both files carry a header row and column of correlate texts; values are
    written to 6 decimals, diagonal cells are empty.
    """
    values_path = f"{prefix}.values.tsv"
    mask_path = f"{prefix}.mask.tsv"
    n = len(ct.correlate_order)
    header = "\t" + "\t".join(ct.texts)
    with open(values_path, "w", encoding="utf-8") as vf, \
            open(mask_path, "w", encoding="utf-8") as mf:
        vf.write(header + "\n")
        mf.write(header + "\n")
        for i in range(n):
            row_v = [ct.texts[i]]
            row_m = [ct.texts[i]]
            for j in range(n):
                if i == j:
                    row_v.append("")
                else:
                    row_v.append("%.6f" % ct.values[i, j])
                row_m.append(str(ct.kinds[i, j]))
            vf.write("\t".join(row_v) + "\n")
            mf.write("\t".join(row_m) + "\n")
    return values_path, mask_path
