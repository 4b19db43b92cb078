"""Fixture: offload backends that drift from the driver contract."""


class TwoTupleOffload:
    def bound_block(self, block, siblings=False):
        return block.lower_bound, 0.0  # 2-tuple: finding


class NoSiblingsOffload:
    def bound_block(self, block):  # missing siblings flag: finding
        return block.lower_bound, 0.0, 0.0


class ExtraArgOffload:
    def bound_block(self, block, data, siblings=False):  # extra required arg: finding
        return block.lower_bound, 0.0, 0.0


class BareReturnOffload:
    def bound_block(self, block, siblings=False):
        if not len(block):
            return  # bare return: finding
        return block.lower_bound, 0.0, 0.0
