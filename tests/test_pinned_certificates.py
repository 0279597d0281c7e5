"""The pinned d_max certificates of tests/data/pinned_certificates.txt,
each re-derived by d_max and checked by two routes that share nothing with
the W tables: the distance of the certificate's pair code
(code_pair_stabilizers, Knill-Laflamme), and where n <= 14 the
state-vector check, which passes at d_max and fails at d_max + 1.  d_max
gives the same certificate at every W table height."""

import pathlib

import pytest

from tqograph import analysis
from tqograph.analysis import d_max
from tqograph.gf2 import BitString
from tqograph.graphs import FamilySpec, gen_family
from tqograph.oracle import QUBIT_CAP, brute_force_qecc_check, build_graph_state, graph_basis_state
from tqograph.stabilizer import code_pair_stabilizers, normalizer_min_weight

DATA = pathlib.Path(__file__).resolve().parent / "data" / "pinned_certificates.txt"


def pinned_rows():
    rows = []
    for line in DATA.read_text().splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            family, params, n, d, cert = line
            params = tuple(int(p) for p in params.split(","))
            rows.append(pytest.param(family, params, int(n), int(d), cert,
                                     id=f"{family}-{'-'.join(map(str, params))}"))
    return rows


ROWS = pinned_rows()


def test_the_file_holds_every_pinned_family():
    assert len(ROWS) == 12


@pytest.mark.parametrize("family, params, n, d, cert", ROWS)
def test_certificate(family, params, n, d, cert):
    g = gen_family(FamilySpec(family, params))
    assert g.n == n
    res = d_max(g)
    assert (res.value, res.certificate.to_text()) == (d, cert)
    h = BitString.from_text(cert)
    assert normalizer_min_weight(code_pair_stabilizers(g, h), d + 1)[0] == d
    if n <= QUBIT_CAP:
        states = [build_graph_state(g), graph_basis_state(g, h)]
        assert brute_force_qecc_check(states, d).ok
        if d < n:
            assert not brute_force_qecc_check(states, d + 1).ok


@pytest.mark.parametrize("family, params, n, d, cert", ROWS)
def test_forced_heights_keep_the_certificate(family, params, n, d, cert, monkeypatch):
    # heights 0 .. 3, each capped at d // 2 of the probe; toric 7 takes 1
    # and 2 only: its 6-level peel from T_0 takes about 8 s, and its T_3
    # holds 4 million syndromes
    g = gen_family(FamilySpec(family, params))
    member = analysis._w_member
    for t in range(4) if n <= 72 else (1, 2):
        monkeypatch.setattr(analysis, "_w_member", lambda a, dd, deadline, t=t:
                            member(a, dd, deadline, min(t, dd // 2)))
        res = d_max(g)
        assert (res.value, res.certificate.to_text()) == (d, cert), t
