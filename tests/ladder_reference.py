"""The capped-membership ladder as it ran before membership had one path,
kept as an independent reference for the tests: caps 0 and 1 each solved
and refuted (one point scan), then the scan alone if neither was
definitive, then caps 2..max_cap. A definitive negative carries the cap of
the solve it followed (1 once max_cap >= 1), or max_cap when the scan alone
found the point; an answer over the work budget is never refuted."""

from diagcat import laurent as la


def _capped_solve(f, I, cap):
    """One solve of f at `cap`: `member` with its lifted witness,
    `not_member_up_to`, or `unknown` over the work budget."""
    solved = la._capped_solves([f], I, cap)
    if not solved:
        return la.MembershipResult("unknown", cap)
    if solved[0] is None:
        return la.MembershipResult("not_member_up_to", cap)
    if f.is_zero():
        return la.MembershipResult("member", cap, ())
    return la._lift_witness(f, I, cap, solved[0])


def reference_ascending(f, I, max_cap):
    points = []

    def refute():
        if not points:
            points.append(la.find_refutation_point(f, I))
        return points[0]

    def membership(cap):
        result = _capped_solve(f, I, cap)
        if result.status != "not_member_up_to":
            return result
        pt = refute()
        return la.MembershipResult("not_member_up_to", cap, None, pt, pt is not None)

    last = None
    for cap in range(min(1, max_cap) + 1):
        last = membership(cap)
        if last.is_member:
            return last
    if last is not None and last.definitive:
        return last
    pt = refute()
    if pt is not None:
        return la.MembershipResult("not_member_up_to", max_cap, None, pt, True)
    for cap in range(2, max_cap + 1):
        last = membership(cap)
        if last.is_member:
            return last
    return last if last is not None else membership(max_cap)
