"""Forbidding lines and the constrained lower half.

Split an arrangement at the median row.  Lines through two upper-half
pebbles that cross every lower-half row carve excluded intervals of
length 2A (A = the arrangement's minimum triangle area) around their
intercepts: no pebble may sit closer than 2A to an intercept on its own
row, or it would close a triangle smaller than A.  That restriction is
what the lower-half witness encoding exploits.
"""

from fractions import Fraction

from heilbronn import (
    count_forbidding_lines,
    decode_witness,
    encode_theorem2,
    excluded_columns,
    forbidding_lines,
    intercept_spacings,
    min_area_triangle,
    sample_grid_arrangement,
)

K, n = 1 << 20, 200
a = sample_grid_arrangement(K, n, seed=11, stream_id=4)
assert len(set(p.y for p in a.points)) == n  # distinct rows for this seed

f = forbidding_lines(a)
print(f"dividing row: {f.split_row} (unit height {f.split_row/(K-1):.4f})")
print(f"rectangle pebble counts: top {f.rect_top_count}, bottom {f.rect_bottom_count}")
print(f"certified rectangle-pair lines: {len(f.lines)}")
print(f"all forbidding lines (any upper pair crossing the lower half): "
      f"{count_forbidding_lines(a)}")

t_min = int(min_area_triangle(a, mode="fast").twice_area)
area = Fraction(t_min, 2 * (K - 1) ** 2)
print(f"\nminimum twice-area T = {t_min}  (A = {float(area):.3e})")

lower_rows = sorted(p.y for p in a.points if p.y <= f.split_row)
row = lower_rows[0]
w = intercept_spacings(f, row, min_area=area)
print(f"bottom pebble row {row}: {len(w.intercepts)} intercepts")
if w.D is not None:
    print(f"tightest six-intercept window: D = {float(w.D):.4f}, "
          f"B = min(4A, D) = {float(w.B):.3e}")
excl = excluded_columns(row, f, t_min)
print(f"excluded columns on that row: {len(excl)} of {K}")

rep = encode_theorem2(a)
assert decode_witness("theorem2", rep.payload, K, n) == a
print(f"\nlower-half witness: {rep.witness_length} bits vs baseline "
      f"{rep.baseline_length} (savings {rep.savings}; negative for typical "
      f"arrangements, as it must be)")
