# Which dimensions admit a bound state at all?
#
# For the m = n coupling scheme the answer is the open interval
# 2n < D < 4n, and it is empty for every even n. Three dimensions appear
# exactly once, at n = 1, and D in {4, 5, 6} never appears for any n.

from dimspec import Scheme, bound_dims, render_records_csv, scan, sort_records

print("m = n windows:")
for n in range(1, 10):
    window = bound_dims(n, Scheme.M_EQUALS_N)
    members = " ".join(map(str, window.members)) or "(empty)"
    print(f"  n={n}: ({window.d_min}, {window.d_max}) -> {members}")
print()

# The gap dimensions: no window up to n = 64 holds any of them.
windows = (bound_dims(n, Scheme.M_EQUALS_N).members for n in range(1, 64 + 1))
print("never bound for any n:", sorted({4, 5, 6}.difference(*windows)))
print()

# The m = 1 convention opens wider windows. For n = 3 the inequality
# admits D = 4 as well, although the published discussion skips it; the
# window object flags the difference instead of silently resolving it.
window = bound_dims(3, Scheme.M_EQUALS_ONE)
print(f"m = 1, n = 3: members {window.members}, flagged {window.paper_omitted}")
print()

# A scan turns the windows into records: one line per grid point with the
# classification, the coupling, and the energy where one exists. The CSV
# is gnuplot-ready columnar data.
records = sort_records(scan(range(3, 12), [1, 3], Scheme.M_EQUALS_N))
bound = [r for r in records if r.outcome.is_bound]
print(f"scan 3 <= D <= 11, n in (1, 3): {len(records)} points, {len(bound)} bound")
print()
print(render_records_csv(bound))
