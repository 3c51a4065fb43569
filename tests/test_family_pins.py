"""Bitwise pins of every sketch family's numerics on small fixed problems.

Each case hashes, for one (family, problem) pair, the closed and enumerated
moments, three seeded draws with the ist/cgd estimates on them, the exact
expected estimates, the fixed point, the heterogeneity variance and every
certificate field.  A raised error is pinned by its class name.  The
digests were taken before the sketch families moved behind one registry;
any change to a single bit of these outputs fails here.  The cert.theta,
cert.gamma_max, cert.gamma and cert.rho digests of the six scaled_perm_het
cases were re-taken when the certificate began returning the exact values
its B = I structure fixes (theta = gamma_max = gamma = 1.0, rho = 0.0) in
place of round-off around them.  The sigma2 and cert.sigma2 digests of
scaled_perm_het/het-3-3 (16c8eab2 -> be194d8d) were re-taken when q = 1
sigma2 moved from enumeration to the pair-probability closed form: the
value moved by one unit in the last place, 0x1.36f76aeee8e63p+0 ->
0x1.36f76aeee8e64p+0.

The digests below were re-taken when E[B] and E[B L_bar B] of rand_q,
bernoulli, and perm_q / scaled_perm_homog off the q = 1 homogeneous case
moved from enumeration to the equality-pattern closed form
(``sketches._selection_moments``).  closed_moments moved because it now
holds a second moment (rand_q, bernoulli: a value where NoClosedForm was
pinned); expected_ist because rand_q and bernoulli take E[B] and the mean
linear term in closed form; the certificate fields because W and theta
now come from closed moments in place of enumerated ones.  The partition
E[B] and linear forms, and every other digest, are unchanged.  Old -> new:

perm_q/het-3-3: closed_moments e530730a->ec818685, cert.descent
  eef7ba9d->c566622e, cert.theta 72fa1dcb->1aafdaa7, cert.gamma_max and
  cert.gamma 7ba364a9->d312e28b, cert.rho 078394d9->3262a365.
perm_q/het-2-4 and perm_q2/het-2-4: closed_moments c11cce12->365e26bc,
  cert.descent ad9390d3->5fd94b7d, cert.theta 1a207800->dcd12cc5,
  cert.gamma_max and cert.gamma 92a5d730->41821671, cert.rho
  abcf59ad->5d40e613.
perm_q/hom-2-4: closed_moments b6e34c95->1b77b38b, cert.descent
  1a2f75b3->1354298e, cert.theta fc5ff36a->70d2628e, cert.gamma_max and
  cert.gamma 527d4ebe->ea85929b, cert.rho d9a407db->cd7956b1.
perm_q/het-3-6: closed_moments 8e9b9796->563dff07, cert.descent
  6fedd129->8b0b7cbc, cert.theta f70da901->e105366a, cert.gamma_max and
  cert.gamma d92d8e88->eb621ac4, cert.rho e0c507ce->f7cbf4cf.
scaled_perm_homog/het-3-3: closed_moments 324a4744->5de18189,
  cert.descent 5fb79ec4->4097f323, cert.theta eece665c->5323368e,
  cert.gamma_max and cert.gamma bede15e0->e7d8b3fa, cert.rho
  078394d9->14200652.
scaled_perm_homog/het-2-4: closed_moments 63948f36->e1c40c57,
  cert.descent b262d1c3->3e1c4f37, cert.theta 144943a1->9abddc43,
  cert.gamma_max and cert.gamma 5e1d66eb->8dc91825, cert.rho
  c44110c7->abcf59ad.
scaled_perm_homog/hom-2-4: closed_moments 194070fe->766cc459,
  cert.descent 5961e37f->1678bb45, cert.theta 65a30ec6->07374d1e,
  cert.gamma_max and cert.gamma 2b779101->388c5a2d, cert.rho
  96f11a90->8c5acbb4.
rand_q1/het-2-3: closed_moments 9f26e217->c5001dfd, expected_ist
  06e575b2->0e85e4c8, cert.descent a44b9fa8->9309a888, cert.theta
  ef09de1e->0b499304, cert.gamma_max and cert.gamma 9272aee3->14411e20,
  cert.rho b58e2e06->e22b337f.
rand_q2/het-2-3: closed_moments 9f26e217->74db1464, expected_ist
  23d0fb56->a5ff1bc1, cert.descent 305e9da9->aa810f8b, cert.theta
  b6106c8c->936a0ffd, cert.gamma_max and cert.gamma 800f6384->893a8f73,
  cert.rho 7c588e45->50843724.
rand_q2/hom-2-3: closed_moments 9f26e217->d265962c, expected_ist
  bf0b1cad->99e2930f, cert.descent ec6cacc2->a6e4a90e, cert.theta
  d3829de2->a5bab599, cert.gamma_max and cert.gamma aa524ea7->6f4a7bbc,
  cert.rho 29b35c57->0f536a17.
bernoulli/het-2-3: closed_moments 9f26e217->1eb9f7c2, expected_ist
  24fb28da->580b9244, cert.descent efab0481->3dbd6bd9, cert.theta
  6a29b690->76c97b2d, cert.gamma_max and cert.gamma 883477a1->2daacab7,
  cert.rho 475d341e->7fb81fec.
bernoulli/hom-2-2: closed_moments 9f26e217->ce786c28, expected_ist
  c197ecf1->2166675c, cert.theta 34ccc3a4->9f2ef45e, cert.gamma_max and
  cert.gamma 5e0847c1->172aa2d2.
bernoulli1/het-2-2: closed_moments 9f26e217->a9316128, expected_ist
  52da70e0->af76641c.

Each moved value is within 1e-13 relative of the enumerated one (largest:
theta of scaled_perm_homog/hom-2-4, 9.6e-14).

The digests below were re-taken when E[B L_bar B] moved from one einsum
per equality pattern to shared per-client products
(``sketches._pattern_sums``): the same sums added in another order.  Only
closed_moments and the certificate fields read from the top of the pencil
moved; E[B], cert.descent, the expectations and the draws are unchanged.
Old -> new:

perm_q/het-3-3: closed_moments ec818685->16f8ef17, cert.theta
  1aafdaa7->b820491c, cert.gamma_max and cert.gamma d312e28b->12855e17.
perm_q/het-2-4 and perm_q2/het-2-4: closed_moments 365e26bc->ba90c4b0,
  cert.theta dcd12cc5->1e31e6f3, cert.gamma_max and cert.gamma
  41821671->92a5d730, cert.rho 5d40e613->24a8d9fa.
perm_q/hom-2-4: closed_moments 1b77b38b->aaa5a589, cert.theta
  70d2628e->b2f3ad1e, cert.gamma_max and cert.gamma ea85929b->fd3761b1,
  cert.rho cd7956b1->cf1706c0.
perm_q/het-3-6: closed_moments 563dff07->f992334e, cert.theta
  e105366a->f6dee42d, cert.gamma_max and cert.gamma eb621ac4->8d6dbcc0,
  cert.rho f7cbf4cf->c8968830.
scaled_perm_homog/het-3-3: closed_moments 5de18189->a008eb20.
scaled_perm_homog/het-2-4: closed_moments e1c40c57->d04fd571, cert.theta
  9abddc43->d1c24564, cert.gamma_max and cert.gamma 8dc91825->e5e84ac5,
  cert.rho abcf59ad->24a8d9fa.
scaled_perm_homog/hom-2-4: closed_moments 766cc459->19b239ec, cert.theta
  07374d1e->a54833ee, cert.gamma_max and cert.gamma 388c5a2d->9754a4ab,
  cert.rho 8c5acbb4->cf1706c0.
rand_q1/het-2-3: closed_moments c5001dfd->e3e964a0.
rand_q2/het-2-3: closed_moments 74db1464->5b6e4c40, cert.theta
  936a0ffd->cecfca33, cert.gamma_max and cert.gamma 893a8f73->3e15d27c,
  cert.rho 50843724->4bea561f.
rand_q2/hom-2-3: closed_moments d265962c->5ff68d1b.
bernoulli/het-2-3: closed_moments 1eb9f7c2->516f90ce, cert.theta
  76c97b2d->9f8dbd15, cert.gamma_max and cert.gamma 2daacab7->6dce71ec,
  cert.rho 7fb81fec->ed71f063.
bernoulli/hom-2-2: closed_moments ce786c28->216057b5, cert.theta
  9f2ef45e->6c739cac, cert.gamma_max and cert.gamma 172aa2d2->8da388e3.

Each moved value is within 1e-13 relative of the one computed from
enumerated_moments (for closed_moments, max |difference| over max |entry|
of E[B L_bar B]; largest: perm_q/het-3-6, 5.7e-15, against 5.9e-15 for the
einsum form; largest certificate field: gamma_max of perm_q/hom-2-4,
3.9e-15).

The digests below were re-taken when perm_multiset's E[B L_bar B] off the
q = 1 homogeneous case moved from enumeration to the equality-pattern
closed form, and W and theta with it from enumerated moments to closed
ones.  At n = d perm_multiset is the q = 1 scaled_perm_homog sketch, and
the moved digests of perm_multiset/het-3-3 are now those of
scaled_perm_homog/het-3-3.  Old -> new:

perm_multiset/het-3-3: closed_moments 324a4744->a008eb20, cert.descent
  5fb79ec4->4097f323, cert.theta eece665c->5323368e, cert.gamma_max and
  cert.gamma bede15e0->e7d8b3fa, cert.rho 078394d9->14200652.
perm_multiset/het-4-2: closed_moments f84750fc->2a2ad88b, cert.descent
  36bdf1fe->c91054f7, cert.rho 6c9c1cfd->012af862.

Each moved value is within 1e-15 relative of the one computed from
enumerated_moments (largest: E[B L_bar B] of het-4-2, 7.1e-16; theta of
het-3-3, 7.1e-16).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from istlab import certificates, estimators, sketches
from istlab.errors import IstLabError
from istlab.estimators import EstimatorKind
from istlab.quadratics import gen_heterogeneous, gen_homogeneous, precondition_homogeneous
from istlab.sketches import SketchKind


def _problem(label):
    mode, n, d = label.split("-")
    n, d = int(n), int(d)
    if mode == "het":
        return gen_heterogeneous(n, d, seed=40 + n + d)
    if mode == "interp":
        return gen_heterogeneous(n, d, seed=40 + n + d).as_interpolation()
    return precondition_homogeneous(gen_homogeneous(n, d, seed=50 + n + d))[0]


KINDS = {
    "identity": SketchKind.identity(),
    "perm_q": SketchKind.perm_q(),
    "perm_q2": SketchKind.perm_q(2),
    "scaled_perm_homog": SketchKind.scaled_perm_homog(),
    "perm_multiset": SketchKind.perm_multiset(),
    "scaled_perm_het": SketchKind.scaled_perm_het(),
    "rand_q1": SketchKind.rand_q(1),
    "rand_q2": SketchKind.rand_q(2),
    "bernoulli": SketchKind.bernoulli(0.5),
    "bernoulli1": SketchKind.bernoulli(1.0),
}

CASES = [
    ("identity", "het-3-3"), ("identity", "hom-2-4"),
    ("perm_q", "het-3-3"), ("perm_q", "het-2-4"), ("perm_q", "hom-3-3"),
    ("perm_q", "hom-2-4"), ("perm_q2", "het-2-4"), ("perm_q", "het-3-6"),
    ("scaled_perm_homog", "het-3-3"), ("scaled_perm_homog", "het-2-4"),
    ("scaled_perm_homog", "hom-3-3"), ("scaled_perm_homog", "hom-2-4"),
    ("perm_multiset", "het-3-3"), ("perm_multiset", "het-4-2"),
    ("perm_multiset", "hom-4-2"), ("perm_multiset", "hom-3-3"),
    ("scaled_perm_het", "het-3-3"), ("scaled_perm_het", "het-2-4"),
    ("scaled_perm_het", "interp-2-4"), ("scaled_perm_het", "interp-3-3"),
    ("scaled_perm_het", "hom-3-3"), ("scaled_perm_het", "het-3-6"),
    ("rand_q1", "het-2-3"), ("rand_q2", "het-2-3"), ("rand_q2", "hom-2-3"),
    ("bernoulli", "het-2-3"), ("bernoulli", "hom-2-2"), ("bernoulli1", "het-2-2"),
]


def _canon(value) -> str:
    """A text form that differs whenever a single bit of ``value`` does."""
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        return f"A{a.dtype.str}{a.shape}{a.tobytes().hex()}"
    if isinstance(value, (float, np.floating)):
        return f"F{float(value).hex()}"
    if isinstance(value, (tuple, list)):
        return "T(" + ",".join(_canon(v) for v in value) + ")"
    if isinstance(value, sketches.SketchMoments):
        return _canon([getattr(value, f.name) for f in dataclasses.fields(value)])
    return f"R{value!r}"


def _digest(fn) -> str:
    try:
        text = _canon(fn())
    except IstLabError as exc:
        text = f"E{type(exc).__name__}"
    return hashlib.sha256(text.encode()).hexdigest()[:8]


CERT_FIELDS = [f.name for f in dataclasses.fields(certificates.ConvergenceCertificate)]
QUANTITIES = (
    ["closed_moments", "enumerated_moments", "expected_ist", "expected_cgd", "fixed_point",
     "sigma2"]
    + [f"{q}{t}" for t in range(3) for q in ("draw", "estimate")]
    + [f"cert.{name}" for name in CERT_FIELDS]
)


def case_digests(kind_label, problem_label) -> dict:
    kind = KINDS[kind_label]
    p = _problem(problem_label)
    x = np.random.default_rng(7).standard_normal(p.d)
    ist, cgd = EstimatorKind.ist(kind), EstimatorKind.cgd(kind)
    out = {
        "closed_moments": _digest(lambda: sketches.closed_moments(kind, p)),
        "enumerated_moments": _digest(lambda: sketches.enumerated_moments(kind, p)),
        "expected_ist": _digest(lambda: estimators.expected_estimate(ist, p, x)),
        "expected_cgd": _digest(lambda: estimators.expected_estimate(cgd, p, x)),
        "fixed_point": _digest(lambda: certificates.fixed_point(p, kind)),
        "sigma2": _digest(lambda: estimators.heterogeneity_variance(p, ist)),
    }
    rng = np.random.default_rng(11)
    for t in range(3):
        s = sketches.sample(kind, p, rng)
        out[f"draw{t}"] = _digest(lambda: (s.idx.astype(np.int64), s.factors))
        out[f"estimate{t}"] = _digest(lambda: (
            estimators.estimate(ist, p, x, None, s)[0],
            estimators.estimate(cgd, p, x, None, s)[0],
        ))
    try:
        cert = certificates.certificate(p, kind)
    except IstLabError as exc:
        cert = exc

    def field(name):
        if isinstance(cert, IstLabError):
            raise cert
        return getattr(cert, name)

    for name in CERT_FIELDS:
        out[f"cert.{name}"] = _digest(lambda: field(name))
    return out


# "<kind>/<problem>": the QUANTITIES digests in order (see the module docstring)
PINS = {
    "identity/het-3-3": (
        "2a55beaf d58300d7 b7dcdcf0 4e6a2a30 2b352b7c fd8f7764 dcf9392f 41f907d0 "
        "dcf9392f 41f907d0 dcf9392f 41f907d0 74c6e00b b2908519 00349e52 af72359d "
        "af72359d b44b45ff 319dfbc3 319dfbc3 319dfbc3 fd8f7764 e5a3b04a"
    ),
    "identity/hom-2-4": (
        "9390f10a 682ba470 2815fb0e 2815fb0e 2b352b7c fd8f7764 6928125d 152f4dac "
        "6928125d 152f4dac 6928125d 152f4dac 5811112a b2908519 47e2a70c 9bda046b "
        "9bda046b 6de3d684 319dfbc3 319dfbc3 319dfbc3 fd8f7764 e5a3b04a"
    ),
    "perm_q/het-3-3": (
        "16f8ef17 1db329a9 b6422be4 4e6a2a30 2b352b7c 2b352b7c b7f1735c 36cabcd5 "
        "b7f1735c 36cabcd5 154b18a5 7ae46af7 c566622e b2908519 b820491c 12855e17 "
        "12855e17 3262a365 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "perm_q/het-2-4": (
        "ba90c4b0 6d421d79 457b7065 c98d78bb 2b352b7c 2b352b7c 9355f47b c5f41601 "
        "62a19e61 c5f41601 6024a47b 7628ef81 5fd94b7d b2908519 1e31e6f3 92a5d730 "
        "92a5d730 24a8d9fa 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "perm_q/hom-3-3": (
        "9f786e6f ae71862f 202364f2 64a945ff 2b352b7c 2b352b7c b7f1735c 2697c057 "
        "b7f1735c 2697c057 154b18a5 2697c057 0f0a2bd6 b2908519 9f25ef65 cc12fc0d "
        "cc12fc0d 3005f2f4 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "perm_q/hom-2-4": (
        "aaa5a589 3f9812a3 b279f199 2815fb0e 2b352b7c 2b352b7c 9355f47b c3e4b7f1 "
        "62a19e61 c3e4b7f1 6024a47b 1541ae74 1354298e b2908519 b2f3ad1e fd3761b1 "
        "fd3761b1 cf1706c0 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "perm_q2/het-2-4": (
        "ba90c4b0 6d421d79 457b7065 c98d78bb 2b352b7c 2b352b7c 9355f47b c5f41601 "
        "62a19e61 c5f41601 6024a47b 7628ef81 5fd94b7d b2908519 1e31e6f3 92a5d730 "
        "92a5d730 24a8d9fa 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "perm_q/het-3-6": (
        "f992334e c58d7493 c957d4c7 d0e34be2 2b352b7c 2b352b7c 120803bf 3aa42e15 "
        "da91ee48 49a446e0 d219a133 f96257da 8b0b7cbc b2908519 f6dee42d 8d6dbcc0 "
        "8d6dbcc0 c8968830 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "scaled_perm_homog/het-3-3": (
        "a008eb20 971fe6ee 7acbd89d 566b5102 2b352b7c 2b352b7c fa648520 81ccf4be "
        "fa648520 81ccf4be 907157ed f8dd20a0 4097f323 b2908519 5323368e e7d8b3fa "
        "e7d8b3fa 14200652 319dfbc3 319dfbc3 319dfbc3 319dfbc3 37dce168"
    ),
    "scaled_perm_homog/het-2-4": (
        "d04fd571 6ee233b9 512145dc 7985d374 2b352b7c 2b352b7c 595d7711 b4fab45e "
        "ef2957cf b4fab45e 3e2dc480 9f924395 3e1c4f37 b2908519 d1c24564 e5e84ac5 "
        "e5e84ac5 24a8d9fa 319dfbc3 319dfbc3 319dfbc3 319dfbc3 272b507f"
    ),
    "scaled_perm_homog/hom-3-3": (
        "3ffd3024 33060642 75880d47 86727120 fa087149 fd8f7764 fa648520 0a0b1053 "
        "fa648520 0a0b1053 907157ed 0a0b1053 f543eb2f b2908519 ec29faa4 d4450e12 "
        "d4450e12 1a4509d7 34a50a77 2795480f fa087149 fd8f7764 e5a3b04a"
    ),
    "scaled_perm_homog/hom-2-4": (
        "19b239ec 50d8fa23 0f5958db 08d26c0a 2b352b7c 2b352b7c 595d7711 c1a06133 "
        "ef2957cf c1a06133 3e2dc480 8e2dbab5 1678bb45 b2908519 a54833ee 9754a4ab "
        "9754a4ab cf1706c0 319dfbc3 319dfbc3 319dfbc3 319dfbc3 81c62ef4"
    ),
    "perm_multiset/het-3-3": (
        "a008eb20 971fe6ee 7acbd89d 566b5102 2b352b7c 2b352b7c fa648520 81ccf4be "
        "fa648520 81ccf4be 907157ed f8dd20a0 4097f323 b2908519 5323368e e7d8b3fa "
        "e7d8b3fa 14200652 319dfbc3 319dfbc3 319dfbc3 319dfbc3 f5aa04bd"
    ),
    "perm_multiset/het-4-2": (
        "2a2ad88b 231ccc13 56b5e5ae 17b55c62 2b352b7c 2b352b7c 8d0cc84b 381a3dbf "
        "8824806c d3e4a267 8d0cc84b 381a3dbf c91054f7 b2908519 5be636f1 9a315a26 "
        "9a315a26 012af862 319dfbc3 319dfbc3 319dfbc3 319dfbc3 f5aa04bd"
    ),
    "perm_multiset/hom-4-2": (
        "b6e997c8 0845bce6 da9dab2a af9256cb 2a26c3fa fd8f7764 8d0cc84b c41f78d0 "
        "8824806c c41f78d0 8d0cc84b c41f78d0 1d084267 b2908519 316667a5 a71568e5 "
        "a71568e5 e57fbeaa 606ef710 3940884e 2a26c3fa fd8f7764 e5a3b04a"
    ),
    "perm_multiset/hom-3-3": (
        "3ffd3024 33060642 75880d47 86727120 fa087149 fd8f7764 fa648520 0a0b1053 "
        "fa648520 0a0b1053 907157ed 0a0b1053 f543eb2f b2908519 ec29faa4 d4450e12 "
        "d4450e12 1a4509d7 34a50a77 2795480f fa087149 fd8f7764 e5a3b04a"
    ),
    "scaled_perm_het/het-3-3": (
        "16d292d0 0102fd52 481248c3 677b6af2 e7a34533 be194d8d 2f944279 d0417c18 "
        "2f944279 d0417c18 9684d56a 5b65dba9 9c03c79b b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 65a1a726 530dc497 e7a34533 be194d8d e5a3b04a"
    ),
    "scaled_perm_het/het-2-4": (
        "dd47a071 67f08d36 418f6810 28437321 2b352b7c 7be60c62 1e4dc0b1 d1425d16 "
        "7b07f439 f2bfaef4 f4074883 87d47926 1c8403cc b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 319dfbc3 319dfbc3 319dfbc3 7be60c62 12f30002"
    ),
    "scaled_perm_het/interp-2-4": (
        "d711d448 04ff11fd bbc98e4e 94aa0953 884dfb14 fd8f7764 1e4dc0b1 e8dbfa43 "
        "7b07f439 10329525 f4074883 f126563a 1c8403cc b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 884dfb14 fd8f7764 884dfb14 fd8f7764 e5a3b04a"
    ),
    "scaled_perm_het/interp-3-3": (
        "b883188f 496b2127 4942c658 15fe662e e1dc7ab1 fd8f7764 2f944279 be7da902 "
        "2f944279 be7da902 9684d56a a84b09bf 9c03c79b b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 e1dc7ab1 fd8f7764 e1dc7ab1 fd8f7764 e5a3b04a"
    ),
    "scaled_perm_het/hom-3-3": (
        "f261deb5 33060642 75880d47 86727120 fa087149 fd8f7764 fa648520 0a0b1053 "
        "fa648520 0a0b1053 907157ed 0a0b1053 bf0f90a8 b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 34a50a77 2795480f fa087149 fd8f7764 e5a3b04a"
    ),
    "scaled_perm_het/het-3-6": (
        "343b6dca 8dc0aa98 7cb2fbed 0bee2c37 2b352b7c e1a27033 f7c7e1dd c24e4707 "
        "50a678bc 7fc121d0 bccc9981 e8eb899a 5b0acdb8 b2908519 376ec8c7 376ec8c7 "
        "376ec8c7 fd8f7764 319dfbc3 319dfbc3 319dfbc3 e1a27033 12f30002"
    ),
    "rand_q1/het-2-3": (
        "e3e964a0 20dda014 0e85e4c8 78b65efd 2b352b7c 2b352b7c 413c1a07 c2a93e45 "
        "7837f62e b44a0781 69ea64b9 4e62f1cb 9309a888 b2908519 0b499304 14411e20 "
        "14411e20 e22b337f 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "rand_q2/het-2-3": (
        "5b6e4c40 e4593d4f a5ff1bc1 78b65efd 2b352b7c 2b352b7c 364af67b 81b5f73d "
        "1ff3415e 8f6265a8 441e418a 50eeebda aa810f8b b2908519 cecfca33 3e15d27c "
        "3e15d27c 4bea561f 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "rand_q2/hom-2-3": (
        "5ff68d1b 9baf25da 99e2930f 23b0862f 2b352b7c 2b352b7c 364af67b cd559e3e "
        "1ff3415e be95aa6c 441e418a cd559e3e a6e4a90e b2908519 a5bab599 6f4a7bbc "
        "6f4a7bbc 0f536a17 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "bernoulli/het-2-3": (
        "516f90ce 8a18a518 580b9244 78b65efd 2b352b7c 2b352b7c f5be29f6 22f48b40 "
        "d6d38b13 7a565de2 cd5e6f28 2d64f567 3dbd6bd9 b2908519 9f8dbd15 6dce71ec "
        "6dce71ec ed71f063 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "bernoulli/hom-2-2": (
        "216057b5 091ecc09 2166675c 74cdbd9b 2b352b7c 2b352b7c d6d38b13 e4cf1a4b "
        "b24feaa8 869547dc bcfa3d22 0cde204d 20c61d8a b2908519 6c739cac 8da388e3 "
        "8da388e3 c04c3578 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
    "bernoulli1/het-2-2": (
        "a9316128 48907056 af76641c 52da70e0 2b352b7c 2b352b7c 813027b3 006753be "
        "813027b3 006753be 813027b3 006753be 22232c2a b2908519 1139e6b4 80cc637d "
        "80cc637d cbb5e65e 319dfbc3 319dfbc3 319dfbc3 319dfbc3 e5a3b04a"
    ),
}


@pytest.mark.parametrize("kind_label, problem_label", CASES)
def test_family_numerics_are_bitwise_pinned(kind_label, problem_label):
    got = case_digests(kind_label, problem_label)
    want = dict(zip(QUANTITIES, PINS[f"{kind_label}/{problem_label}"].split()))
    assert [q for q in QUANTITIES if got[q] != want[q]] == []
