import sys

from line_cover import Collector, gaps, report

SAMPLE = '''\
def pick(x, items):
    """A docstring runs no line."""
    if x:
        y = 1
    else:
        y = 2
    for item in items:
        y += item
    if y > 100:
        return -1
    return y


def tail(x):
    if x:
        return 1


def never():
    return 0
'''


def collect(tmp_path, *calls):
    """The sample module's gaps and its collected arcs, after running the sample's functions on `calls`."""
    package = tmp_path / "pkg"
    package.mkdir(parents=True)
    path = package / "sample.py"
    path.write_text(SAMPLE)
    namespace = {}
    collector = Collector(package)
    outer = sys.gettrace()
    collector.run(lambda: [exec(compile(SAMPLE, str(path), "exec"), namespace)] + [namespace[f](*a) for f, *a in calls])
    # the collector of a run that traces this test must still be in place
    assert sys.gettrace() is outer
    found = [(scope, SAMPLE.splitlines()[node.lineno - 1].strip(), what) for node, scope, what in gaps(SAMPLE, collector.arcs[str(path)])]
    return found, package, collector.arcs


def test_the_gaps_of_one_sided_branches_empty_loops_and_dead_statements(tmp_path):
    found, _, _ = collect(tmp_path, ("pick", 1, []), ("tail", 0), ("tail", 1))
    assert found == [
        ("pick", "if x:", "never goes past its body"),
        ("pick", "y = 2", "never runs"),
        ("pick", "for item in items:", "never enters its body"),
        ("pick", "y += item", "never runs"),
        ("pick", "if y > 100:", "never enters its body"),
        ("pick", "return -1", "never runs"),
        ("never", "return 0", "never runs"),
    ]


def test_an_if_that_ends_its_function_goes_past_its_body_by_returning(tmp_path):
    found, _, _ = collect(tmp_path, ("pick", 1, [1]), ("pick", 0, [200]), ("tail", 0), ("tail", 1))
    assert found == [("never", "return 0", "never runs")]
    found, _, _ = collect(tmp_path / "only-true", ("tail", 1))
    assert ("tail", "if x:", "never goes past its body") in found


def test_the_allow_list_forgives_its_gaps_and_fails_when_stale_or_unmatched(tmp_path):
    _, package, arcs = collect(tmp_path, ("pick", 1, [1]), ("pick", 0, [200]), ("tail", 0), ("tail", 1))
    assert report(package, arcs, {}) == ["sample.py:20 (never) return 0  never runs"]
    assert report(package, arcs, {("sample.py", "never", "return 0"): "kept for the test"}) == []
    # an entry forgives the gaps of the statements nested in its own; one on a statement without gaps is stale
    assert report(package, arcs, {("sample.py", "", "def never():"): "a whole definition"}) == []
    assert report(package, arcs, {("sample.py", "pick", "return y"): "stale"}) == [
        "sample.py:20 (never) return 0  never runs",
        "allow-list: ('sample.py', 'pick', 'return y') is stale, its statement has no gap",
    ]
    assert report(package, arcs, {("sample.py", "pick", "return 0"): "names nothing"})[0] == (
        "allow-list: ('sample.py', 'pick', 'return 0') names 0 statements"
    )
    assert report(package, arcs, {("gone.py", "", "return 0"): "names nothing"})[0] == (
        "allow-list: ('gone.py', '', 'return 0') names 0 statements"
    )
