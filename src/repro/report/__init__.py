"""Plain-text rendering of tables, histograms and saw-tooth curves.

The paper's figures are regenerated as ASCII artefacts so the benchmark
harness and the examples can print the same rows/series the paper reports
without any plotting dependency.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign": ("render_campaign_summary",),
        "histogram": ("render_histogram",),
        "tables": ("render_series", "render_table"),
    },
)
