"""Good: every emitted name is declared in repro.obs.registry."""


class _Obs:
    def add(self, name, value):
        pass

    def gauge(self, name, value):
        pass

    def span(self, name):
        pass


obs = _Obs()


def record(n, length):
    obs.add("submp.profiles.total", n)
    obs.add(f"submp.profiles.valid.l{length}", n)
    obs.gauge("kernel.block_rows", n)
    with obs.span("block"):
        pass
