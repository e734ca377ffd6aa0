"""Rule geometry, each rule written once as an elementwise numpy kernel.

Arguments are broadcastable arrays (Python scalars work too) of rects
(x, y, w, h), covering the half-open cell range [x, x+w) x [y, y+h), and of
terminal cells.  The mask builders in `masks` broadcast the subject's anchor
over the grid (`xs[:, None]`, `ys[None, :]`) to score every candidate cell;
the metrics in `metrics` pass one row per constraint instance to score a
placement.  A mask cell therefore equals the metric of the forced placement
by construction.  Integer inputs give exact integer results, except where a
kernel divides or halves.
"""

import numpy as np


def span_reach(a, alen, b, blen):
    """Signed overlap of [a, a+alen) and [b, b+blen): its length when they
    overlap, zero when they touch, minus the gap when they are apart."""
    return np.minimum(a + alen, b + blen) - np.maximum(a, b)


def span_overlap(a, alen, b, blen):
    """Length of [a, a+alen) & [b, b+blen)."""
    return np.maximum(span_reach(a, alen, b, blen), 0)


def rect_overlap(x1, y1, w1, h1, x2, y2, w2, h2):
    """Cell count of two rects' intersection, as if on one layer."""
    return span_overlap(x1, w1, x2, w2) * span_overlap(y1, h1, y2, h2)


def span_gap(lo, hi, p):
    """Distance from p to the closed interval [lo, hi]; zero inside."""
    return np.maximum(np.maximum(lo - p, p - hi), 0)


def rim_distance(x, y, w, h, tx, ty):
    """Manhattan distance from terminal (tx, ty) to the rect's nearest rim
    cell.  Zero on the one-cell-wide rim; a terminal strictly inside is
    still one or more cells from it."""
    x_end, y_end = x + w - 1, y + h - 1
    edge_x = np.minimum(np.abs(tx - x), np.abs(tx - x_end))
    edge_y = np.minimum(np.abs(ty - y), np.abs(ty - y_end))
    return np.minimum(span_gap(x, x_end, tx) + edge_y,
                      edge_x + span_gap(y, y_end, ty))


def merge_terminals(dist, every):
    """Binding distance from rim distances whose leading axis runs over the
    binding's terminals: the worst terminal when `every` is set (mode ALL),
    the best otherwise (mode ANY)."""
    if len(dist) == 1:          # one terminal: both modes agree
        return dist[0]
    return np.where(every, dist.max(axis=0), dist.min(axis=0))


def abutment(x1, y1, w1, h1, x2, y2, w2, h2):
    """Shared edge length of two rects on one layer.  When one's x extent
    ends where the other's begins it is their y overlap, when they meet in
    y their x overlap; corner contact and any other arrangement give 0."""
    reach_x = span_reach(x1, w1, x2, w2)
    reach_y = span_reach(y1, h1, y2, h2)
    return ((reach_x == 0) * np.maximum(reach_y, 0)
            + (reach_y == 0) * np.maximum(reach_x, 0))


def alignment_ratio(x1, y1, w1, h1, x2, y2, w2, h2, min_area):
    """Projected intersection over min_area, saturated at 1."""
    return np.minimum(1.0, rect_overlap(x1, y1, w1, h1, x2, y2, w2, h2) / min_area)


def center_distance(x1, y1, w1, h1, x2, y2, w2, h2):
    """Manhattan distance between the two rects' centers."""
    return (np.abs(x1 + w1 / 2.0 - (x2 + w2 / 2.0))
            + np.abs(y1 + h1 / 2.0 - (y2 + h2 / 2.0)))

