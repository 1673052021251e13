"""The comparing functions of ``compare_parent.py`` on synthetic records."""

import numpy as np

from compare_parent import (README_COUNTS, changed_modules, code_lines,
                            compare_steps, compare_trees, format_summary,
                            mask_seconds, module_code_lines, readme_summary,
                            record_key, repeat_counts, runs_agree)


def steps(n, clamped=3):
    rng = np.random.default_rng(n)
    return [{"u": rng.normal(size=6), "p": rng.normal(size=3),
             "record": {"step": k, "t": 0.1 * k, "clamped_feet": clamped}}
            for k in range(1, n + 1)]


def copied(run):
    return [{"u": s["u"].copy(), "p": s["p"].copy(),
             "record": dict(s["record"])} for s in run]


def test_equal_runs_agree():
    parent = steps(4)
    summary = compare_steps(parent, copied(parent))
    assert summary == {"steps": (4, 4), "equal": 4, "rel_u": 0.0,
                       "rel_p": 0.0, "clamped": (12, 12)}
    assert runs_agree(summary)
    assert format_summary("run", summary) == (
        "run: 4/4 steps bitwise equal (u, p, record); max relative change "
        "u 0, p 0; clamped feet 12 / 12")


def test_one_ulp_in_one_step_is_a_difference():
    parent = steps(4)
    child = copied(parent)
    child[2]["u"][1] = np.nextafter(child[2]["u"][1], np.inf)
    summary = compare_steps(parent, child)
    assert summary["equal"] == 3
    assert 0.0 < summary["rel_u"] < 1e-15 and summary["rel_p"] == 0.0
    assert not runs_agree(summary)


def test_records_differ_by_their_bits():
    parent = steps(2)
    child = copied(parent)
    parent[0]["record"]["residual"] = 0.0
    child[0]["record"]["residual"] = -0.0
    assert record_key(parent[0]["record"]) != record_key(child[0]["record"])
    child[1]["record"]["clamped_feet"] = 4
    summary = compare_steps(parent, child)
    assert summary["equal"] == 0
    assert summary["clamped"] == (6, 7)
    assert not runs_agree(summary)


def test_runs_of_other_lengths_or_sizes_do_not_agree():
    parent = steps(3)
    summary = compare_steps(parent, copied(parent)[:2])
    assert summary["steps"] == (3, 2) and summary["equal"] == 2
    assert not runs_agree(summary)
    assert format_summary("run", summary).startswith(
        "run: 2 of 3 (parent) / 2 steps bitwise equal")
    child = copied(parent)
    child[0]["p"] = np.zeros(4)
    summary = compare_steps(parent, child)
    assert summary["rel_p"] == np.inf and summary["equal"] == 2


def test_trees_compared_file_by_file(tmp_path):
    parent, child = tmp_path / "parent", tmp_path / "child"
    for root in (parent, child):
        (root / "out").mkdir(parents=True)
        (root / "out" / "same.csv").write_bytes(b"1,2\n")
    (parent / "out" / "changed.vtk").write_bytes(b"0.5\n")
    (child / "out" / "changed.vtk").write_bytes(b"0.50000000000000001\n")
    (parent / "gone.txt").write_bytes(b"")
    (child / "new.txt").write_bytes(b"")
    assert compare_trees(parent, child) == {
        "gone.txt": "only in parent", "new.txt": "only in child",
        "out/changed.vtk": "differs", "out/same.csv": "identical"}


def test_only_the_seconds_of_the_finished_line_are_masked():
    one = (b"case two-layer: N=12, tau=0.1\n"
           b"finished 10 steps in 1.3 s; outputs in out\n")
    other = one.replace(b"1.3 s", b"12.75 s")
    assert mask_seconds(one) == mask_seconds(other) == one.replace(
        b"1.3", b"*")
    assert mask_seconds(one.replace(b"10 steps", b"11 steps")) \
        != mask_seconds(other)
    assert mask_seconds(b"finished in 1.3 s\n") == b"finished in 1.3 s\n"


def test_repeats_and_steps_fixed_by_their_inputs():
    # steps 1-9 give a b c c c c c d d: steps 4-7 and 9 repeat the step
    # before, and steps 7 and 8 follow four equal results
    assert repeat_counts(list("abcccccdd")) == {
        "bitwise_repeats": 5, "repeats_from": 4,
        "fixed_by_inputs": 2, "fixed_from": 7}
    assert repeat_counts(list("abcab")) == {
        "bitwise_repeats": 0, "repeats_from": None,
        "fixed_by_inputs": 0, "fixed_from": None}
    assert repeat_counts([]) == repeat_counts(list("abcab"))
    # four equal results make the fifth step fixed, whatever its own
    assert repeat_counts(list("aaaab"))["fixed_by_inputs"] == 1


def readme_record(run_s, rss, keys, **counts):
    record = {key: 0 for key in README_COUNTS}
    return {**record, **counts, "run_s": run_s, "ru_maxrss": rss,
            "keys": keys}


def test_readme_summary_of_interleaved_pairs():
    parent = [readme_record(t, 100 + i, list("abcc"), steps=4, lu_solves=9)
              for i, t in enumerate((10.0, 12.0, 11.0))]
    child = [readme_record(t, 90, list("abdd"), steps=4,
                           lu_solves=9 if i else 8)
             for i, t in enumerate((5.0, 12.5, 5.5))]
    summary = readme_summary(parent, child)
    assert summary["pairs"] == 3
    assert summary["run_s_median"] == [11.0, 5.5]
    assert summary["ratio_median"] == 0.5
    assert summary["child_faster"] == 2
    assert summary["ru_maxrss_max"] == [102, 90]
    # a count that every repetition of a side repeats is one value, else
    # the side's values in pair order
    assert summary["counts"]["steps"] == [4, 4]
    assert summary["counts"]["lu_solves"] == [9, [8, 9, 9]]
    assert summary["counts"]["fixed_from"] == [0, 0]
    assert set(summary["counts"]) == set(README_COUNTS)
    # steps 1 and 2 of the first repetitions are equal, steps 3 and 4 not
    assert summary["bitwise_equal_steps"] == 2


SYNTHETIC_SOURCE = '''"""A module docstring
over two lines."""

import math   # a trailing comment keeps its line

# a comment line


class Shape:
    """One line."""

    sides = 3

    def area(self):
        """A method docstring,
        on two lines."""
        text = """a string
        that is no docstring"""
        return (math.pi
                * len(text))


async def wait():
    \'\'\'Single-quoted.\'\'\'
    "a string statement after the docstring counts"
'''


def test_code_lines_of_a_synthetic_source(tmp_path):
    # import, class, sides, def area, the two lines of text, the two of
    # the return, async def and the second string statement; the
    # docstrings, comments and blank lines are left out
    assert code_lines(SYNTHETIC_SOURCE) == 10
    assert code_lines("") == 0
    package = tmp_path / "porousflow"
    package.mkdir()
    (package / "a.py").write_text(SYNTHETIC_SOURCE)
    (package / "b.py").write_text("x = 1\n\n# end\n")
    (package / "notes.txt").write_text("y = 2\n")
    assert module_code_lines(tmp_path) == {"a.py": 10, "b.py": 1}


def synthetic_package(root, modules):
    package = root / "porousflow"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source)
    return root


def test_modules_whose_code_lines_differ(tmp_path):
    parent = module_code_lines(synthetic_package(tmp_path / "parent", {
        "a.py": SYNTHETIC_SOURCE, "b.py": "x = 1\n", "gone.py": "y = 2\n"}))
    child = module_code_lines(synthetic_package(tmp_path / "child", {
        "a.py": SYNTHETIC_SOURCE, "b.py": "x = 1\n# a comment\ny = x\n",
        "new.py": "import os\n\nz = (1,\n     2)\n"}))
    # a.py is unchanged; a module on one side only counts 0 on the other
    assert changed_modules(parent, child) == [
        "b.py 1 -> 2", "gone.py 1 -> 0", "new.py 0 -> 3"]
    assert changed_modules(child, child) == []
