"""Fixture twin: contract-compliant offload backends (offload-contract clean)."""


class CompliantOffload:
    def bound_block(self, block, siblings=False):
        return block.lower_bound, 0.0, 0.0


class ForwardingOffload:
    def bound_block(self, block, siblings=False):
        return self._future(block).result()  # non-literal return: unchecked

    def _future(self, block):
        raise NotImplementedError
