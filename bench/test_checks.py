"""Tests of the benchmark's checkers: they accept right answers and reject
planted wrong ones.  Run with `python3 -m unittest discover -s bench`."""

import itertools
import json
import sys
import unittest
from math import prod
from pathlib import Path

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# chimney triangulations of P^(1,2) and P^(2,2), worked out by hand
TRI_1_2 = [[[0, 0], [1, 2], [0, 1]], [[0, 1], [1, 2], [0, 2]]]
TRI_2_2 = [
    [[0, 0], [1, 1], [0, 1]],
    [[0, 1], [1, 1], [0, 2]],
    [[0, 2], [1, 1], [1, 2]],
    [[1, 1], [2, 2], [1, 2]],
]


def triangulation(cells):
    return {"simplices": cells, "verification": {"ok": True}}


class Geometry(unittest.TestCase):
    def test_point_count_matches_enumeration(self):
        for s in itertools.product(range(1, 5), repeat=3):
            for t in range(4):
                self.assertEqual(checks.point_count(s, t), len(checks.lattice_points(s, t)), (s, t))

    def test_enumeration_matches_membership(self):
        s = (2, 3, 5)
        box = itertools.product(*(range(2 * v + 1) for v in s))
        inside = [x for x in box if checks.in_polytope(s, x, t=2)]
        self.assertEqual(sorted(inside), sorted(checks.lattice_points(s, 2)))

    def test_determinant(self):
        self.assertEqual(checks.determinant([[0, 1], [1, 0]]), -1)
        self.assertEqual(checks.determinant([[2, 1, 0], [0, 1, 4], [1, 0, 1]]), 6)
        self.assertEqual(checks.determinant([[1, 2], [2, 4]]), 0)


class Delta(unittest.TestCase):
    def test_known_vectors(self):
        self.assertEqual(checks.delta_vector((2, 3)), (1, 4, 1))
        self.assertEqual(checks.delta_vector((2, 3, 4, 5, 6)), (1, 57, 302, 302, 57, 1))

    def test_accepts_right_delta(self):
        self.assertEqual(checks.check_delta((2, 3, 4, 5, 6), [1, 57, 302, 302, 57, 1]), [])

    def test_rejects_entry_off_by_one(self):
        for i in range(6):
            dv = [1, 57, 302, 302, 57, 1]
            dv[i] += 1
            self.assertTrue(checks.check_delta((2, 3, 4, 5, 6), dv), i)

    def test_rejects_moved_mass(self):
        # same sum and same delta_0, delta_1: only the full comparison sees it
        self.assertTrue(checks.check_delta((2, 3, 4, 5, 6), [1, 57, 301, 303, 57, 1]))


class Theorems(unittest.TestCase):
    def test_paper_conditions_agree_with_delta(self):
        for d in range(1, 5):
            for s in itertools.product(range(1, 6), repeat=d):
                dv = checks.delta_vector(s)
                fano = dv[d] == 1
                reflexive = checks.is_palindrome(dv) and checks.degree(dv) == d
                for name, _, oriented in checks.theorem_orientations(s):
                    self.assertEqual(checks.fano_condition(name, oriented), fano, (s, name))
                    self.assertEqual(checks.reflexive_condition(name, oriented), reflexive, (s, name))

    def test_strictly_increasing_gorenstein_index_at_most_two(self):
        for s in itertools.combinations(range(1, 9), 4):
            index = checks.gorenstein_index(s, checks.delta_vector(s))
            self.assertTrue(index is None or index <= 2, s)

    def test_classification(self):
        right = {
            "s": [2, 3, 4], "class": "strictly-increasing", "class_reversed": False,
            "fano_theorem": True, "fano_delta": True, "interior_point": [1, 2, 3],
            "reflexive_theorem": True, "reflexive_reason": None, "reflexive_delta": True,
            "gorenstein_index": 1,
        }
        self.assertEqual(checks.check_classification((2, 3, 4), right), [])
        for field, wrong in (("fano_delta", False), ("interior_point", [1, 1, 2]),
                             ("gorenstein_index", 2), ("class_reversed", True)):
            self.assertTrue(checks.check_classification((2, 3, 4), {**right, field: wrong}), field)


class Idp(unittest.TestCase):
    def test_accepts_monotone_idp(self):
        self.assertEqual(checks.check_idp_verdict((2, 3, 4, 6), True, 3, None), [])

    def test_rejects_flipped_verdict_on_monotone(self):
        for s in ((2, 3, 4, 6), (6, 4, 3, 2), (3, 3, 3, 3)):
            self.assertTrue(checks.check_idp_verdict(s, False, 3, [0, 0, 0, 0]), s)

    def test_rejects_decomposable_witness(self):
        # (2, 4, 6, 2) lies in 2P^(1,2,3,1) and decomposes as (1, 2, 3, 1) twice
        self.assertTrue(checks.check_idp_verdict((1, 2, 3, 1), False, 3, [2, 4, 6, 2]))

    def test_sweep_record(self):
        s = (2, 2, 3, 1)
        record = {"s": list(s), "delta": list(checks.delta_vector(s)),
                  "idp_verdict": True, "k_checked": 3, "classification": {}}
        problems = checks.check_sweep_records([record], [s])
        self.assertTrue(all(p.startswith("classify") for p in problems), problems)
        self.assertTrue(checks.check_sweep_records([{**record, "error": "budget-exceeded"}], [s]))
        self.assertTrue(checks.check_sweep_records([record], [s, (1, 1, 1, 1)]))

    def test_sweep_record_with_flipped_verdict(self):
        s = (1, 2, 2, 3)
        record = {"s": list(s), "delta": list(checks.delta_vector(s)), "idp_verdict": False,
                  "k_checked": 3, "classification": {},
                  "witness": {"kind": "idp-failure", "k": 3, "point": [0, 0, 0, 0]}}
        problems = checks.check_sweep_records([record], [s])
        self.assertTrue(any("weakly monotone" in p for p in problems), problems)


class Compose(unittest.TestCase):
    def test_gorenstein(self):
        right = {"composite": [2, 3, 1, 2], "predicted_index": 2, "confirmed_index": 2,
                 "delta_product_ok": True, "ok": True}
        self.assertEqual(checks.check_gorenstein_compose((2, 3), (2,), right), [])
        self.assertTrue(checks.check_gorenstein_compose((2, 3), (2,), {**right, "confirmed_index": 3}))

    def test_idp(self):
        right = {"composite": [2, 3, 1, 3, 2], "k_checked": 4, "verdict": True, "ok": True}
        self.assertEqual(checks.check_idp_compose((2, 3), (3, 2), right), [])
        self.assertTrue(checks.check_idp_compose((2, 3), (3, 2), {**right, "verdict": False}))


class Ehrhart(unittest.TestCase):
    def test_routes(self):
        s = (2, 3)
        out = {"counts": [1, 7, 19], "polynomial": [[1, 1], [3, 1], [3, 1]], "delta": [1, 4, 1]}
        self.assertEqual(checks.check_ehrhart(s, out, [1, 4, 1]), [])
        self.assertTrue(checks.check_ehrhart(s, out, [1, 3, 2]))
        self.assertTrue(checks.check_ehrhart(s, {**out, "counts": [1, 7, 20]}, [1, 4, 1]))


class Triangulation(unittest.TestCase):
    def test_accepts_triangulations(self):
        self.assertEqual(checks.check_triangulation((1, 2), triangulation(TRI_1_2)), [])
        self.assertEqual(checks.check_triangulation((2, 2), triangulation(TRI_2_2)), [])

    def test_rejects_determinant_two(self):
        cells = TRI_2_2[:3] + [[[0, 0], [2, 2], [1, 2]]]
        problems = checks.check_triangulation((2, 2), triangulation(cells))
        self.assertTrue(any("determinant 2" in p for p in problems), problems)

    def test_rejects_cell_moved_outside(self):
        cells = TRI_2_2[:3] + [[[1, 2], [2, 3], [1, 3]]]
        problems = checks.check_triangulation((2, 2), triangulation(cells))
        self.assertTrue(any("leaves P" in p for p in problems), problems)

    def test_rejects_overlap_with_right_count(self):
        # four unimodular cells inside P, but two of them overlap and a gap remains
        cells = TRI_2_2[:3] + [[[0, 1], [1, 1], [1, 2]]]
        self.assertEqual(len(cells), prod((2, 2)))
        self.assertTrue(checks.check_triangulation((2, 2), triangulation(cells)))

    def test_rejects_failed_program_verification(self):
        out = {"simplices": TRI_1_2, "verification": {"ok": False}}
        self.assertTrue(checks.check_triangulation((1, 2), out))


@unittest.skipUnless((SRC / "hallwalk").is_dir(), "needs the hallwalk sources")
class PlantedInRound(unittest.TestCase):
    """One real round of a workload, then a wrong answer planted into it."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        from hallwalk import cli

        cls.invoke = staticmethod(lambda name, argv: cli.main(argv))

    def run_round(self, workload):
        result = workload.round(self.invoke, keep=True)
        self.assertEqual(result.errors, [])
        self.assertEqual(workload.check(result), [])
        return result

    def slot(self, workload, *argv):
        return next(n for n, op in enumerate(workload.ops) if op[1][: len(argv)] == list(argv))

    def plant(self, workload, result, argv, change):
        """Apply change() to the parsed answer of the operation starting with argv."""
        n = self.slot(workload, *argv)
        answer = json.loads(result.answers[n])
        change(answer)
        result.answers[n] = json.dumps(answer)

    def test_crosscheck_delta_off_by_one(self):
        workload = workloads.Crosscheck(seed=3, outdir=None)
        result = self.run_round(workload)
        self.plant(workload, result, ("delta", "2,3,4,5,6"), lambda a: a["delta"].__setitem__(2, a["delta"][2] + 1))
        self.assertTrue(workload.check(result))

    def test_crosscheck_gorenstein_index(self):
        workload = workloads.Crosscheck(seed=3, outdir=None)
        result = self.run_round(workload)
        self.plant(workload, result, ("classify", "1,2,3,4,5,6,7"),
                   lambda a: a.__setitem__("gorenstein_index", 1))
        self.assertTrue(workload.check(result))

    def test_certify_planted_cells(self):
        workload = workloads.Certify(seed=3, outdir=None)
        result = self.run_round(workload)
        good = list(result.answers)
        argv = ("triangulate", "2,6,12")
        # moves a vertex out of P
        self.plant(workload, result, argv, lambda a: a["simplices"][5].__setitem__(0, [3, 6, 12]))
        self.assertTrue(any("leaves P" in p for p in workload.check(result)))
        result.answers = list(good)
        # a cell inside P with determinant -2
        self.plant(workload, result, argv,
                   lambda a: a["simplices"].__setitem__(7, [[0, 0, 0], [0, 0, 2], [0, 1, 2], [1, 3, 6]]))
        self.assertTrue(any("determinant -2" in p for p in workload.check(result)))


if __name__ == "__main__":
    unittest.main()
