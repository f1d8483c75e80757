"""R008 good fixture: statistics and FFTs flow through SeriesContext."""

from repro.kernels.context import SeriesContext


def stats(series, length):
    ctx = SeriesContext(series)
    return ctx.moving_mean_std(length)


def dots(series, query):
    # Cached series spectrum: no direct np.fft call needed.
    return SeriesContext(series).sliding_dot_product(query)
