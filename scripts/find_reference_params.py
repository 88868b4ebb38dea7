"""Derive certified strategy parameters for a system.

Procedure: fix c and K, pick M0 >= 1, search the smallest zoom factor P
whose certified zoom-out bound epsilon(P, M0) sits below the target, round
P up to a clean value, then choose L so the contraction margin is
comfortably positive (P*delta = 0.05 leaves margin ~0.29 for the default
system).  The resulting parameter block is what the shipped reference
configs freeze.

Run:  python scripts/find_reference_params.py [--system gaussian|student_t]
"""

import argparse
import math

from zoomctl.analysis import epsilon_bound, feasibility, min_zoom_factor
from zoomctl.codec import StrategyParams, rate
from zoomctl.distributions import DistributionSpec, moment_summary

EPS_TARGET = 0.05
C = 0.2
K = 2.0
M0 = 1.0
PdELTA = 0.05  # P/L, drives the contraction margin


def reference_system(name: str) -> tuple[DistributionSpec, DistributionSpec]:
    w = DistributionSpec.gaussian(0.0, 1.0)
    if name == "gaussian":
        return DistributionSpec.gaussian(1.0, 0.5), w
    # student t with dof 5 scaled/shifted to mean 1, stddev 0.5
    scale = 0.5 * math.sqrt(3.0 / 5.0)
    return DistributionSpec.student_t(5.0, scale, 1.0), w


def round_up_clean(x: float) -> float:
    exp = math.floor(math.log10(x))
    for mant in (1, 2, 5, 10):
        cand = mant * 10.0**exp
        if cand >= x:
            return cand
    raise AssertionError


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--system", choices=("gaussian", "student_t"), default="gaussian")
    parser.add_argument("--alpha", type=float, default=4.5)
    args = parser.parse_args()

    a_spec, w_spec = reference_system(args.system)
    a_m = moment_summary(a_spec, args.alpha)
    w_m = moment_summary(w_spec, args.alpha)
    m_alpha = max(2.0, a_m.shifted_abs_moment_alpha)
    ell_alpha = w_m.abs_moment_alpha
    print(f"system {args.system}: mu_A={a_m.mean} sigma_A={a_m.stddev}")
    print(f"m_alpha={m_alpha:.6g} ell_alpha={ell_alpha:.6g}")

    p_min = min_zoom_factor(M0, args.alpha, m_alpha, ell_alpha, EPS_TARGET)
    p_clean = round_up_clean(p_min)
    eps = epsilon_bound(p_clean, M0, args.alpha, m_alpha, ell_alpha)
    print(f"smallest P with bound < {EPS_TARGET}: {p_min:.4g}  ->  P = {p_clean:g} (eps={eps:.4g})")

    l_val = int(round_up_clean(p_clean / PdELTA))
    params = StrategyParams(L=l_val, P=p_clean, M0=M0, K=K, c=C)
    report = feasibility(params, a_m, w_m, args.alpha)
    print(f"L = {l_val:g}  (P*delta = {p_clean / l_val:.4g})  R = {rate(params)} bits")
    print(
        f"margin_drift={report.margin_drift:.4g} margin_K={report.margin_K:.4g} "
        f"c+eps={report.c + report.epsilon_estimate:.4g} ok={report.ok}"
    )
    print("\nconfig block:")
    print(f"P = {p_clean:g}\nL = {l_val}\nM0 = {M0:g}\nK = {K:g}\nc = {C:g}")


if __name__ == "__main__":
    main()
