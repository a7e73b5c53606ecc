"""Tests for ASCII plotting."""

from repro.eval import ConvergenceRecorder, ascii_bars, ascii_plot, convergence_plot


class TestAsciiPlot:
    def test_empty_series(self):
        assert ascii_plot({}) == "(no data)"

    def test_contains_markers_and_legend(self):
        text = ascii_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=6,
            title="demo",
        )
        assert "demo" in text
        assert "*=a" in text
        assert "o=b" in text

    def test_constant_series(self):
        text = ascii_plot({"flat": [(0, 1.0), (5, 1.0)]}, width=10, height=4)
        assert "*" in text

    def test_bars(self):
        text = ascii_bars({"APA": 0.1, "APCPA": 0.9}, width=10, title="w")
        lines = text.splitlines()
        assert lines[0] == "w"
        assert lines[2].count("#") == 10  # APCPA is the peak
        assert lines[1].count("#") == 1

    def test_bars_empty(self):
        assert ascii_bars({}) == "(no data)"

    def test_convergence_plot(self):
        recorder = ConvergenceRecorder(method="x")
        recorder.start()
        recorder.log(0, 1.0, 0.2)
        recorder.log(1, 0.5, 0.8)
        text = convergence_plot({"x": recorder}, width=20, height=5)
        assert "seconds" in text

    def test_convergence_plot_skips_empty(self):
        empty = ConvergenceRecorder()
        assert convergence_plot({"x": empty}) == "(no data)"
