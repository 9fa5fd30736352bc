"""Ordered-genotype state space and per-individual likelihood factors.

The latent genotype of each pedigree member takes four states: non-carrier,
heterozygous carrier whose mutated allele came from the father, heterozygous
carrier whose mutated allele came from the mother, and homozygous carrier.
Disease risk depends on the transmitting parent: the paternal-origin
heterozygote carries the log hazard ratio ``beta`` while maternal-origin
heterozygotes and homozygotes follow the baseline hazard. Non-carriers never
develop the disease.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Genotype",
    "GENOTYPE_LABELS",
    "LABEL_TO_GENOTYPE",
    "N_STATES",
    "DEFAULT_EPSILON",
    "DEFAULT_ETA",
    "ModelParams",
    "founder_prior",
    "TRANSMIT_PROBABILITY",
    "TRANSMISSION",
    "penetrance_factor",
    "test_factor",
    "evidence_factor",
    "FixedEvidence",
    "evidence_matrix",
    "origin_weights",
]

N_STATES = 4

# Magnitudes consistent with clinical-grade genetic tests.
DEFAULT_EPSILON = 0.01
DEFAULT_ETA = 0.001


class Genotype(enum.IntEnum):
    NON_CARRIER = 0
    HET_PATERNAL = 1  # mutated allele inherited from the father
    HET_MATERNAL = 2  # mutated allele inherited from the mother
    HOMOZYGOUS = 3


GENOTYPE_LABELS = {
    Genotype.NON_CARRIER: "0",
    Genotype.HET_PATERNAL: "1p",
    Genotype.HET_MATERNAL: "1m",
    Genotype.HOMOZYGOUS: "2",
}
LABEL_TO_GENOTYPE = {label: g for g, label in GENOTYPE_LABELS.items()}


def _check_error_rates(epsilon, eta):
    """Raise ``ValueError`` unless both gene-test error rates lie in [0, 1)."""
    for name, rate in (("epsilon", epsilon), ("eta", eta)):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {rate}")


def _check_beta(beta, name="beta"):
    """``ValueError`` unless ``beta`` is finite and exp(beta), the paternal
    hazard scale, is a positive finite float: about -745 < beta < 709.78.
    Every entry point that takes an origin effect applies this one rule,
    and :func:`survival.survival_curve` applies it to the log-risk it
    exponentiates, which the message calls ``name``."""
    if not math.isfinite(beta):
        raise ValueError(f"{name} must be finite, got {beta}")
    try:
        scale = math.exp(beta)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"{name} {beta} is out of range: exp({name}) must be positive and finite"
        )


def _check_q(q):
    """``ValueError`` unless the allele frequency ``q`` lies in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"allele frequency q must be in [0, 1], got {q}")


@dataclass(frozen=True)
class ModelParams:
    """Fixed and fitted quantities entering the likelihood factors.

    ``q``, ``epsilon``, and ``eta`` are assumed known; ``beta``, ``gamma``,
    and ``baseline`` are the estimation targets. ``baseline`` may be any
    object with a ``cumulative(t)`` method (a fitted step function or a
    parametric hazard); ``None`` means identically zero cumulative hazard.
    """

    q: float
    beta: float = 0.0
    gamma: tuple[float, ...] = ()
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA
    baseline: object | None = None

    def __post_init__(self):
        _check_q(self.q)
        _check_error_rates(self.epsilon, self.eta)
        _check_beta(self.beta)
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))

    def cumulative_hazard(self, t):
        if self.baseline is None:
            return np.zeros_like(np.asarray(t, dtype=float)) if not np.isscalar(t) else 0.0
        return self.baseline.cumulative(t)


def founder_prior(q: float) -> np.ndarray:
    """Hardy-Weinberg genotype distribution for a founder.

    The heterozygote mass 2q(1-q) splits evenly between the paternal- and
    maternal-origin states.
    """
    _check_q(q)
    het = q * (1.0 - q)
    return np.array([(1.0 - q) ** 2, het, het, q * q])


#: P(a parent passes on the mutated allele), indexed by the parent's ordered
#: genotype; the origin of a heterozygous parent's own allele is irrelevant
#: to what it passes on.
TRANSMIT_PROBABILITY = (0.0, 0.5, 0.5, 1.0)


def _build_transmission() -> np.ndarray:
    tp = np.array(TRANSMIT_PROBABILITY)[:, None]  # father, one row per genotype
    tm = np.array(TRANSMIT_PROBABILITY)[None, :]  # mother, one column per genotype
    table = np.stack(
        [(1.0 - tp) * (1.0 - tm), tp * (1.0 - tm), (1.0 - tp) * tm, tp * tm], axis=-1
    )
    table.setflags(write=False)
    return table


#: Mendelian transmission table indexed [father, mother, child].
TRANSMISSION = _build_transmission()


def penetrance_factor(t, delta, x, z, params: ModelParams) -> float:
    """Phenotype likelihood for one individual at genotype ``x``.

    For affected individuals the genotype-independent baseline hazard value
    at ``t`` is omitted: it scales every carrier state equally (non-carriers
    have likelihood 0), so posteriors are unchanged.
    """
    if t < 0 or not math.isfinite(t):
        raise ValueError(f"time must be finite and non-negative, got {t}")
    x = int(x)
    if len(z) != len(params.gamma):
        raise ValueError("covariate vector length does not match gamma")
    zg = float(np.dot(z, params.gamma)) if params.gamma else 0.0
    lam = float(params.cumulative_hazard(t))
    if delta == 0:
        if x == Genotype.NON_CARRIER:
            return 1.0
        if x == Genotype.HET_PATERNAL:
            return math.exp(-lam * math.exp(params.beta + zg))
        return math.exp(-lam * math.exp(zg))
    if x == Genotype.NON_CARRIER:
        return 0.0
    if x == Genotype.HET_PATERNAL:
        risk = math.exp(params.beta + zg)
    else:
        risk = math.exp(zg)
    return math.exp(-lam * risk) * risk


def test_factor(g, x, epsilon: float, eta: float) -> float:
    """Genetic-test likelihood P(G = g | X = x).

    ``g`` is 1 (positive), 0 (negative), or None (untested, contributing a
    constant factor 1).
    """
    if g is None:
        return 1.0
    carrier = int(x) != Genotype.NON_CARRIER
    if g == 1:
        return 1.0 - epsilon if carrier else eta
    if g == 0:
        return epsilon if carrier else 1.0 - eta
    raise ValueError(f"gene test must be 0, 1, or None, got {g!r}")


def evidence_factor(record, params: ModelParams) -> np.ndarray:
    """Single-individual evidence table over the four genotype states.

    Combines the phenotype and gene-test likelihoods. For a record with
    ``phenotype_suppressed`` set (proband ascertainment correction) the
    phenotype part is replaced by 1 for every state, keeping only the test
    factor.
    """
    phi = np.ones(N_STATES)
    if not record.phenotype_suppressed:
        for x in range(N_STATES):
            phi[x] = penetrance_factor(
                record.age, record.status, x, record.covariates, params
            )
    if record.gene_test is not None:
        for x in range(N_STATES):
            phi[x] *= test_factor(record.gene_test, x, params.epsilon, params.eta)
    return phi


class FixedEvidence:
    """The parts of :func:`evidence_matrix` that a new hazard leaves alone.

    For given records and gene-test error rates ``epsilon`` and ``eta``,
    each in [0, 1) (``ValueError`` otherwise), they are: the status
    selections (affected rows take their risk as a factor and rule out the
    non-carrier state), the suppression of phenotypes (a suppressed row
    carries no hazard), the records' (n, k) ``covariates``, k possibly 0,
    which fix how many covariate effects a run takes, and, per state, the
    gene-test factors times the ``pins`` indicator (n, 4) of allowed states,
    if any. A caller that evaluates the same records under the same error
    rates many times builds them once. Its arrays are read-only, so that
    engines may share them.
    """

    def __init__(self, status, gene_test, covariates, epsilon, eta, suppress=None,
                 pins=None):
        _check_error_rates(epsilon, eta)
        status = np.asarray(status, dtype=int)
        gene_test = np.asarray(gene_test, dtype=int)
        self.covariates = np.array(covariates, dtype=float)
        live = np.ones(status.shape[0], dtype=bool)
        if suppress is not None:
            live = ~np.asarray(suppress, dtype=bool)
        self.live = live.astype(float)
        self.affected = (status == 1) & live
        factor = np.ones((N_STATES, status.shape[0]))
        factor[Genotype.NON_CARRIER, self.affected] = 0.0
        for result, noncarrier, carrier in ((1, eta, 1.0 - epsilon), (0, 1.0 - eta, epsilon)):
            factor[:, gene_test == result] *= np.array([noncarrier] + [carrier] * 3)[:, None]
        if pins is not None:
            factor *= pins.T
        self.factor = factor
        for array in (self.covariates, self.live, self.affected, self.factor):
            array.flags.writeable = False

    def hazards(self, cumulative_hazard, gamma):
        """The records' ``cumulative_hazard``, 0 where the phenotype is
        suppressed, once ``gamma`` holds one effect per covariate and the
        hazards are finite and non-negative (``ValueError`` otherwise)."""
        k = self.covariates.shape[1]
        if len(gamma) != k:
            raise ValueError("gamma must hold one effect per covariate: the records have "
                             f"{k}, gamma has {len(gamma)}")
        lam = np.asarray(cumulative_hazard, dtype=float)
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("cumulative hazards must be finite and non-negative")
        return lam * self.live

    def fill(self, hazards, beta, gamma, out=None):
        """:func:`evidence_matrix` of checked ``hazards`` (see :meth:`hazards`)."""
        if out is None:
            out = np.empty((N_STATES, hazards.shape[0]))
        if self.covariates.shape[1]:
            zg = self.covariates @ np.asarray(gamma, dtype=float)
            risks = (np.exp(beta + zg), np.exp(zg))
        else:  # exp(beta + 0) is exp(beta) and exp(0) is 1, so the bits are the same
            risks = (np.exp(beta), 1.0)
        out[Genotype.NON_CARRIER] = self.factor[Genotype.NON_CARRIER]
        for state, risk in zip((Genotype.HET_PATERNAL, Genotype.HET_MATERNAL), risks):
            phenotype = np.exp(-hazards * risk)
            np.multiply(phenotype, risk, out=phenotype, where=self.affected)
            np.multiply(phenotype, self.factor[state], out=out[state])
        # the homozygote shares the maternal-origin heterozygote's phenotype
        np.multiply(phenotype, self.factor[Genotype.HOMOZYGOUS], out=out[Genotype.HOMOZYGOUS])
        return out.T


def evidence_matrix(cumulative_hazard, beta, gamma, fixed: FixedEvidence) -> np.ndarray:
    """Vectorized evidence tables for many individuals at once.

    Parameters
    ----------
    cumulative_hazard : (n,) array of each individual's baseline cumulative
        hazard at their age, ``ModelParams.cumulative_hazard(age)``; the
        caller gathers it, so that a fixed jump grid is searched once per fit
    beta, gamma : the origin effect and the k covariate effects, one per
        column of ``fixed.covariates`` (``ValueError`` naming both counts
        otherwise); with no covariates each risk is one scalar, not a
        per-record array
    fixed : the individuals' :class:`FixedEvidence` (statuses, gene tests
        under the error rates, suppressed phenotypes, covariates, pins)

    Returns
    -------
    (n, 4) array of per-individual factors, same convention as
    :func:`evidence_factor` (times ``fixed``'s pins).
    """
    return fixed.fill(fixed.hazards(cumulative_hazard, gamma), beta, gamma)


def origin_weights(marginals) -> np.ndarray:
    """The (2, n) origin split of an (n, 4) posterior marginal table.

    Row 0 is each individual's paternal-origin mass (``HET_PATERNAL``), row 1
    its maternal-origin mass (``HET_MATERNAL`` plus ``HOMOZYGOUS``, whose
    phenotype follows the maternal-origin hazard); non-carrier mass has no
    row. These are the weights of the M-step's records.
    """
    return np.stack((
        marginals[:, Genotype.HET_PATERNAL],
        marginals[:, Genotype.HET_MATERNAL] + marginals[:, Genotype.HOMOZYGOUS],
    ))
