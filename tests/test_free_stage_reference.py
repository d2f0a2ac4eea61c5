"""The long sequence and comparison lifts against the general formulas.

The stages of a resolution are free 2-modules [0 -> R^k], so
``long_sequence`` reads only the degree-0 blocks of the horseshoe and a
``ComparisonLift`` keeps only eps_0.  The references below keep the
formulas written for stages with degree-1 generators: the zig-zag pair
block with its alpha and F.f1 corners, block-diagonal connecting cells, a
cell eps_n in every degree and a chain map with lambda_n = -eps_n.  On
free stages both must give the same matrices, map for map and cell for
cell.
"""

import json
from pathlib import Path

import pytest

from twohom import catalog
from twohom.cli import load_doc
from twohom.complex2 import (ChainMor, homology_map, induced, kernel_cell,
                             pair_block)
from twohom.derived import FunctorSpec, apply, long_sequence
from twohom.exactlin import Matrix, block_diag, ZZ
from twohom.fpmod import FPModule, ModMor, compose as mcompose
from twohom.resolution import compare, horseshoe, lift_through, resolve
from twohom.twomod import compose, null_homotopy, rk_factorize

WORKSPACE = Path(__file__).resolve().parents[1] / "tests" / "cli_small_workspace.json"
DEPTHS = (1, 2, 3)


def _corner(m: Matrix, rows: int, cols: int) -> Matrix:
    """The top-right rows x cols block of m."""
    return m[:rows, m.cols - cols:]


def _zigzag_block(tk, tp, tq, n: int) -> Matrix:
    """The pair block (q, b) |-> (h_n q, t_n q - h_{n-1}.f1 b) built from the
    off-diagonal blocks h, t of the split complex TK."""
    p1 = tp.module(n - 2).M1.gens
    q0 = tq.module(n).M0.gens
    return pair_block(_corner(tk.diff(n).f0.mat, tp.module(n - 1).M0.gens, q0),
                      _corner(tk.alpha_s(n).mat, p1, q0),
                      -_corner(tk.diff(n - 1).f1.mat, p1, tq.module(n - 1).M1.gens))


def _reference_sequence(t, F, phi, G, depth):
    """The maps and cells of the long sequence, in its order, with the
    degree-1 blocks read; and the three resolutions."""
    res_a = resolve(F.src, depth + 2)
    res_c = resolve(G.dst, depth + 2)
    res_b, i_mor, p_mor = horseshoe(F, phi, G, res_a, res_c)
    tp, tk, tq, ti, tpr = apply(t, (res_a.complex(), res_b.complex(),
                                    res_c.complex(), i_mor, p_mor))
    for c in (tp, tk, tq):
        assert all(m.M1.gens == 0 for m in c.modules)

    def eye(n):
        return Matrix.identity(tp.ring, n)

    maps, cells = [], []
    for i in range(depth, -1, -1):
        u, v = induced(ti, i), induced(tpr, i)
        maps += [u, v]
        cells.append(ModMor.zero(u.src.M0, v.dst.M1))
        if i == 0:
            continue
        maps.append(homology_map(tq.homology(i), tp.homology(i - 1),
                                 _zigzag_block(tk, tp, tq, i),
                                 -_zigzag_block(tk, tp, tq, i + 1)))
        gp0, gk0, gq0 = (c.module(i).M0.gens for c in (tp, tk, tq))
        gp1, gk1, gq1 = (c.module(i - 1).M1.gens for c in (tp, tk, tq))
        cells.append(kernel_cell(tk.homology(i), tp.homology(i - 1).module.M1,
                                 block_diag([_corner(eye(gk0), gp0, gk0),
                                             _corner(eye(gk1), gp1, gk1)])))
        cells.append(kernel_cell(tq.homology(i), tk.homology(i - 1).module.M1,
                                 -block_diag([_corner(eye(gk0), gk0, gq0),
                                              _corner(eye(gk1), gk1, gq1)])))
    return maps, cells, (res_a, res_b, res_c)


def _reference_lift(h, res_src, res_dst):
    """H_n and eps_n for every n, with eps_n = sigma_n ∘ e_n.f1 stored in
    each degree, and the chain map whose lambda_n is -eps_n for n >= 1."""
    hs, eps_s = {}, {}
    hs[0], sigma0 = lift_through(res_src.module(0), compose(res_src.aug, h),
                                 res_dst.aug)
    eps_s[0] = sigma0.s
    for n in range(1, res_src.depth + 1):
        e_cand = compose(res_src.f(n), hs[n - 1])
        below = h if n == 1 else hs[n - 2]
        s = (mcompose(res_src.f(n).f0, eps_s[n - 1])
             + mcompose(res_src.cell(n).s, below.f1))
        psi = null_homotopy(compose(e_cand, res_dst.f(n - 1)), s)
        kernel = res_dst.kernels[n - 1]
        t_n, _ = rk_factorize(kernel, e_cand, psi)
        hs[n], sigma = lift_through(res_src.module(n), t_n,
                                    res_dst.witnesses[n - 1])
        eps_s[n] = mcompose(sigma.s, kernel.e.f1)
    lams = {n: ModMor(res_src.module(n).M0, res_dst.module(n - 1).M1,
                      -eps_s[n].mat, check=False)
            for n in eps_s if n >= 1}
    return eps_s, ChainMor(res_src.complex(), res_dst.complex(), hs, lams)


def _mats(f):
    return f.f0.mat.tolists(), f.f1.mat.tolists()


def _workspace(ring_doc):
    doc = json.loads(WORKSPACE.read_text())
    doc["ring"] = ring_doc
    return load_doc(doc), doc["objects"]


def _cases():
    """(id, functor, extension): the catalog extension under Z/2 (x) -, each
    extension of the cli-small workspace under each of its functors, and
    one of its extensions over Z/12."""
    out = [("catalog T2", FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2)),
            catalog.catalog_extension())]
    ws, objs = _workspace({"kind": "Z"})
    for e in sorted(k for k, v in objs.items() if v["type"] == "extension"):
        for t in sorted(k for k, v in objs.items() if v["type"] == "functor"):
            out.append((f"{e} {t}", ws.get(t), ws.get(e)))
    ws12, _ = _workspace({"kind": "Zmod", "n": 12})
    out.append(("Z/12 e1 T4", ws12.get("T4"), ws12.get("e1")))
    return out


CASES = _cases()


@pytest.mark.parametrize("t, ext", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_long_sequence_and_lifts_match_the_general_formulas(t, ext):
    for depth in DEPTHS:
        seq = long_sequence(t, *ext, depth)
        maps, cells, resolutions = _reference_sequence(t, *ext, depth)
        assert [_mats(m) for _, m in seq.maps] == [_mats(m) for m in maps]
        assert ([c.s.mat.tolists() for c in seq.cells]
                == [c.mat.tolists() for c in cells])
        res_a, res_b, res_c = resolutions
        for h, src, dst in ((ext[0], res_a, res_b), (ext[2], res_b, res_c)):
            lift = compare(h, src, dst)
            eps_s, chain = _reference_lift(h, src, dst)
            new_chain = lift.as_chain_mor()
            for n in range(src.depth + 1):
                assert _mats(lift.lift(n)) == _mats(chain.f(n))
                assert lift.eps(n).s.mat.tolists() == eps_s[n].mat.tolists()
                if n >= 1:
                    assert lift.eps(n).s.mat.is_zero()
            for n in range(src.depth + 2):
                assert _mats(new_chain.f(n)) == _mats(chain.f(n))
                assert (new_chain.lam_s(n).mat.tolists()
                        == chain.lam_s(n).mat.tolists())
