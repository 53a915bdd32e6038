import random

from strictsmooth.sod import lefschetz, serre_vanishing_record, sod

RESIDUAL = {"residual": True, "weakly_crepant": True}


def twisted(doc):
    return [b for b in doc["blocks"] if not b.get("residual")]


def pattern(doc):
    return [(b.get("twist"), b.get("residual", False)) for b in doc["blocks"]]


# ----- lefschetz blocks -------------------------------------------------------


def test_lefschetz_d4_k2():
    result = lefschetz("C", 4, 2)
    assert result["center"] == "C" and result["applicable"]
    assert result["blocks"] == [
        {"index": 0, "kind": "orthogonal-complement", "twist": 0},
        {"index": 1, "kind": "pullback", "twist": 1},
    ]
    assert result["dual_blocks"] == [
        {"index": 0, "kind": "orthogonal-complement", "twist": 0},
        {"index": 1, "kind": "pullback", "twist": -1},
    ]


def test_lefschetz_not_applicable_when_k_equals_d():
    result = lefschetz("C", 2, 2)
    assert result == {
        "center": "C",
        "applicable": False,
        "reason": "vanishing order k=2 is not strictly below the codimension d=2",
    }


def test_lefschetz_case_one_block_chain():
    for n in (2, 3, 5):
        result = lefschetz("C", n, 1)
        assert len(result["blocks"]) == n - 1
        assert [b["twist"] for b in result["blocks"]] == list(range(n - 1))
        assert result["blocks"][0]["kind"] == "orthogonal-complement"
        assert all(b["kind"] == "pullback" for b in result["blocks"][1:])
        assert [b["twist"] for b in result["dual_blocks"]] == [-l for l in range(n - 1)]


# ----- sod --------------------------------------------------------------------


def test_sod_single_center_d4_k2():
    assert sod([("C", 4, 2)]) == {
        "applicable": True,
        "twist_order": "ascending",
        "blocks": [{"center": "C", "twist": -1}, RESIDUAL],
    }


def test_sod_crepant_case_has_residual_only():
    assert sod([("C", 2, 1)])["blocks"] == [RESIDUAL]


def test_sod_two_centers_ascending_twists():
    assert sod([("A", 4, 1), ("B", 4, 2)])["blocks"] == [
        {"center": "A", "twist": -2},
        {"center": "A", "twist": -1},
        {"center": "B", "twist": -1},
        RESIDUAL,
    ]


def test_sod_rejects_k_at_least_d():
    assert sod([("A", 3, 1), ("B", 2, 2)]) == {
        "applicable": False,
        "reason": "the semiorthogonal decomposition requires the vanishing order to be "
        "strictly below the codimension at every center; offenders: B (k=2, d=2)",
    }


def test_block_count_identities():
    for d in range(2, 13):
        for k in range(1, d):
            result = lefschetz("C", d, k)
            assert len(result["blocks"]) == d - k
            assert len(result["dual_blocks"]) == d - k
            doc = sod([("C", d, k)])
            assert len(twisted(doc)) == d - k - 1
            assert [b["twist"] for b in twisted(doc)] == list(range(k - d + 1, 0))
            assert doc["blocks"][-1] == RESIDUAL


def test_crepant_boundary():
    # discrepancy zero (d = k + 1) exactly when no twisted blocks appear
    for d in range(2, 13):
        for k in range(1, d):
            assert (len(twisted(sod([("C", d, k)]))) == 0) == (d - k - 1 == 0)


def test_sod_depends_only_on_shape_multiset_and_order():
    rng = random.Random(13)
    for _ in range(20):
        shapes = []
        for i in range(rng.randint(1, 4)):
            d = rng.randint(2, 12)
            k = rng.randint(1, d - 1)
            shapes.append((f"C{i}", d, k))
        first = sod(shapes)
        assert sod(shapes) == first
        # renaming preserves the block pattern
        renamed = [(f"D{i}", d, k) for i, (_, d, k) in enumerate(shapes)]
        assert pattern(sod(renamed)) == pattern(first)


def test_residual_appears_exactly_once_and_last():
    blocks = sod([("A", 5, 1), ("B", 3, 1)])["blocks"]
    residuals = [i for i, b in enumerate(blocks) if b.get("residual")]
    assert residuals == [len(blocks) - 1]


# ----- pushforward vanishing records ------------------------------------------


def test_serre_vanishing_ranges():
    record = serre_vanishing_record("C", 4)
    assert record == {"center": "C", "open_range": [-4, 0], "twists": [-3, -2, -1]}
    assert serre_vanishing_record("C", 1)["twists"] == []
    assert serre_vanishing_record("C", 2)["twists"] == [-1]
