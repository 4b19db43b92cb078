"""Fixture: offload backends that drift from the driver contract."""


class TwoTupleOffload:
    def bound_block(self, block):
        return block.lower_bound, 0.0  # 2-tuple: finding


class FlaggedOffload:
    def bound_block(self, block, complete=False):  # extra optional flag: finding
        return block.lower_bound, 0.0, 0.0


class ExtraArgOffload:
    def bound_block(self, block, data):  # extra required arg: finding
        return block.lower_bound, 0.0, 0.0


class BareReturnOffload:
    def bound_block(self, block):
        if not len(block):
            return  # bare return: finding
        return block.lower_bound, 0.0, 0.0
