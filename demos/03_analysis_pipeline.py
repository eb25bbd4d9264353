"""The full statistical pipeline over a synthetic 34-team corpus.

Builds a corpus in which specialization drives collective intelligence,
which drives performance, with an inverted-U between proximity adaptation
and performance. Then runs every analysis: rank correlations, multi-predictor
regression, quadratic fits with their optimum, bootstrapped mediation with
5000 resamples, quartile grouping, and group ANOVA.
"""
import numpy as np

from teamcoord.stats import (
    PerformanceGroup,
    bootstrap_mediation,
    one_way_anova,
    ols,
    performance_groups,
    quadratic_fit,
    spearman,
)

N_TEAMS = 34


def build_corpus(seed=26):
    rng = np.random.default_rng(seed)
    sed = rng.uniform(0.3, 0.9, N_TEAMS)
    sms = rng.uniform(0.2, 0.9, N_TEAMS)
    spa = rng.uniform(0.158, 0.597, N_TEAMS)
    ci = np.clip(0.15 + 0.55 * sms + rng.normal(0, 0.08, N_TEAMS), 0, 1)
    # specialization acts on performance both directly and through ci;
    # adaptation helps up to ~0.35 and hurts beyond it
    perf = (200 * ci + 120 * sms + 2200 * spa - 3160 * spa ** 2
            + rng.normal(0, 25, N_TEAMS) + 120)
    return {"sed": sed, "sms": sms, "spa": spa, "ci": ci, "performance": perf}


def main():
    cols = build_corpus()
    names = ("sed", "sms", "spa", "ci", "performance")

    print(f"spearman correlations (n={N_TEAMS})")
    print(" " * 12 + "".join(f"{n:>13s}" for n in names))
    for a in names:
        row = []
        for b in names:
            r = 1.0 if a == b else spearman(cols[a], cols[b]).rho
            row.append(f"{r:13.2f}")
        print(f"{a:>12s}" + "".join(row))

    print("\nregression: performance ~ sed + sms + spa")
    X = np.column_stack([np.ones(N_TEAMS), cols["sed"], cols["sms"], cols["spa"]])
    res = ols(cols["performance"], X)
    for name, coef, p in zip(("intercept", "sed", "sms", "spa"),
                             res.coefficients, res.coef_p_values):
        print(f"  {name:10s} {coef:9.2f}  (p={p:.3f})")
    print(f"  R^2 = {res.r_squared:.2f}, F = {res.f_stat:.2f} (p={res.f_p_value:.3f})")

    print("\nquadratic fit: performance ~ spa + spa^2")
    fit = quadratic_fit(cols["spa"], cols["performance"])
    shape = "inverted U" if fit.inverted_u else "U or flat"
    print(f"  {fit.c0:.1f} + {fit.c1:.1f} x + {fit.c2:.1f} x^2  ({shape})")
    print(f"  optimal adaptation level: {fit.vertex_x:.3f}")

    print("\nmediation: sms -> ci -> performance (5000 resamples)")
    med = bootstrap_mediation(cols["sms"], cols["ci"], cols["performance"],
                              resamples=5000, seed=1)
    print(f"  a = {med.a:.3f}, b = {med.b:.1f}, total = {med.c_total:.1f}, "
          f"direct = {med.c_prime:.1f}")
    print(f"  indirect = {med.indirect_point:.1f}, 95% CI [{med.ci_low:.1f}, {med.ci_high:.1f}]"
          f" -> {'significant' if med.significant else 'not significant'}")
    if med.pct_mediated is not None:
        print(f"  {med.pct_mediated:.1f}% of the total effect runs through ci")

    print("\nperformance groups (bottom 25% / middle 50% / top 25%)")
    ids = [f"team{i:02d}" for i in range(N_TEAMS)]
    groups = performance_groups(dict(zip(ids, cols["performance"])))
    print("  sizes:", {g.value: list(groups.values()).count(g) for g in PerformanceGroup})

    by_group = {g: [] for g in PerformanceGroup}
    spa_groups = performance_groups(dict(zip(ids, cols["spa"])))
    for sid, perf in zip(ids, cols["performance"]):
        by_group[spa_groups[sid]].append(perf)
    res = one_way_anova([by_group[PerformanceGroup.BOTTOM25],
                         by_group[PerformanceGroup.MIDDLE50],
                         by_group[PerformanceGroup.TOP25]])
    print("\nperformance across adaptation terciles (low/mid/high by spa)")
    print(f"  means: {np.mean(by_group[PerformanceGroup.BOTTOM25]):.1f} / "
          f"{np.mean(by_group[PerformanceGroup.MIDDLE50]):.1f} / "
          f"{np.mean(by_group[PerformanceGroup.TOP25]):.1f}")
    print(f"  F({res.df_between},{res.df_within}) = {res.f:.2f} (p={res.p_value:.3f})")


if __name__ == "__main__":
    main()
