"""Field arithmetic: exhaustive axiom checks for every supported order <= 81."""

import hashlib

import pytest

from traceschemes import SUPPORTED_ORDERS, UnsupportedFieldOrder, gf


@pytest.mark.parametrize("q", [6, 10, 12, 100, 121, 1])
def test_unsupported_orders_rejected(q):
    with pytest.raises(UnsupportedFieldOrder):
        gf(q)


def test_supported_orders_cover_constructions():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 97):
        assert q in SUPPORTED_ORDERS
        gf(q)


def _check_axioms(q):
    field = gf(q)
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    r = range(q)
    # identities and inverses
    for a in r:
        assert add[a][0] == a and add[0][a] == a
        assert mul[a][1] == a and mul[1][a] == a
        assert mul[a][0] == 0
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
    # commutativity
    for a in r:
        ra_add, ra_mul = add[a], mul[a]
        for b in range(a + 1, q):
            assert ra_add[b] == add[b][a]
            assert ra_mul[b] == mul[b][a]
    # associativity and distributivity, exhaustively over all triples
    for a in r:
        ma, aa = mul[a], add[a]
        for b in r:
            m_ab, a_ab = mul[ma[b]], add[aa[b]]
            mb, ab = mul[b], add[b]
            assert m_ab == [ma[mb[c]] for c in r]          # (a*b)*c == a*(b*c)
            assert a_ab == [aa[ab[c]] for c in r]          # (a+b)+c == a+(b+c)
            a_mab = add[ma[b]]
            assert [ma[x] for x in ab] == [a_mab[ma[c]] for c in r]  # a*(b+c) == a*b+a*c


@pytest.mark.parametrize("q", [q for q in SUPPORTED_ORDERS if q <= 81])
def test_field_axioms_exhaustive(q):
    _check_axioms(q)


# sha256 of repr((add, mul, neg, inv)) for each order: every construction
# numbers its points by these elements, so the tables must not move.
TABLE_DIGESTS = {
    2: "56694e59ba662059b9a98064b56f3a544c6ab7ba90369fbb6d488ad261fbfc3f",
    3: "2cf114b6bf565083c2b0f131d09528bd576860c73c2cc0f88823dcf3961dd407",
    4: "31811d564c5efe37a2e61c6c52585ec72350dd1cdb5115c7a68cef9477b46b02",
    5: "8fc1cc289306313ed8f5f575e75bf1c3792d7c4245be4dd6b2421ff5e6210ed0",
    7: "bc6987198b096bb509a4ca6b3d9f1cff429e4206a9d8d5303739f0b6039b3fce",
    8: "0b3ae15e0169772efbee483d496717c4f9fd41f7a880d51db75132cc2c6fdf26",
    9: "508f161589db080714cde977898ba3ba418e552e9f30400593f61aab4201ba6e",
    11: "6dd507bc3ee48fd437cc72e4c6a32a434f661743d93508fe721840a35c84772e",
    13: "23b4e0d968cbf69d8ab5d75dfd43ebdcc01ac673ba54b0241c05d203b9e0d5e5",
    16: "b13ec7398fca06dade67693257b14e85587c1dfeaefc0c77da1843a65aa59091",
    17: "52756155a5d4b6fe03eeaa1a406c73e930cc1c66df76ffa4cc034534a75b4c1b",
    19: "96d3056823606a6b38ad0ccc4f986e968e6e03964b1776dacd6873e17615cb31",
    23: "9f0886bddd5099e4fa5815290a86a4c01fda0ce67b1b50bba3ef755380e5449d",
    25: "4157d3368e0137e2642dbfeecd587ea15f2f1735ccf196733ca03279ef988760",
    27: "c36443460fe488bd1d72516e6e402c894a1c3ede3c17b676c4d809b8fcbbc091",
    29: "7171232771f53b013c00ef1fe878f75f6666498e06e44162427da797ea726d70",
    31: "bd6a4282c7f965b1af0efe134bf371b6cd73992775a8d89f03e9b4b9086dd07d",
    32: "e80f9707f646cda63a4e5600ba45b4201ebff7bd3a12a8f39d3f3fe8fabafe75",
    37: "724a12df91957b8d0b13066dde602a886bca96bc3941cb52495e922e0c575ef4",
    41: "f45c1eb02edfc50657fbdb4953b80d745a03e6a7052def4536ced3941d5c7ef7",
    43: "84bafa70639103aa855979fefa82855cc20f2f64b1c5f8f3837d49f49049b39e",
    47: "04656b92353a0b9dbebee4bde92ccd93165f33d79faf3056db479057483c00e8",
    49: "5a2551676542d0d710731d8fecade631c4ecc2d8962ecdd1ff36442e664494d4",
    53: "a1ec72f4fd8d06fad5b524ddff0a2340c53294262138fd56e567d9c85ac59a4e",
    59: "789dc7c03289712b8a942f706f3e4cec273dfe9a6acc7b8687cfe61f4daa96d3",
    61: "618d75bf3da72422a79033407c60327d58cda73be6728ce2e7c167b8f4833cc2",
    64: "119ebf7202c545b2d6640b24dadd402e7f53dd707b864c7c44fd875c95a43a63",
    67: "34885423e490de1a23f2ebbaa056aacc2880472a895ccc35d4ec6c27b3de0dff",
    71: "03a657df351c7e19e3e1a7f5316c75e15b13f8bfb7190268bf377afe809f1ce7",
    73: "b0a1edbed46816ae4941b7884d3fa53c14d979044af8c1d10bd9efed23f15c7a",
    79: "4406761a6ad96a497370ab04149553d58ea6ed1a6c8f80a6ac2bc5eefdcc6087",
    81: "2bec512654579a06020c1a78d9275d1608d403eedbf1412d1f65fac6ee8b058e",
    83: "9b8305e89454a5cb4421ae74ff78bb16c6996d55f4dc5e918ab09dd8448dd199",
    89: "7f7a52d19567f8929ccc7bdcf99a6b23ba7fcc055e6d536a8c9ee785ca2a2844",
    97: "4cc3538682e0d29cb4e6a8273c27cf6009636e252b0dc682f1834d1dfe9e8e9b",
}


def test_table_digests_cover_supported_orders():
    assert tuple(TABLE_DIGESTS) == SUPPORTED_ORDERS


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_tables_are_pinned(q):
    field = gf(q)
    text = repr((field.add, field.mul, field.neg, field.inv))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[q]


def test_pow_and_div():
    field = gf(9)
    for a in range(1, 9):
        assert field.pow(a, 8) == 1  # multiplicative group order divides q-1
        assert field.div(a, a) == 1
        assert field.pow(a, -1) == field.inv[a]
    assert field.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        field.div(1, 0)


def test_subfields():
    assert set(gf(4).subfield(2)) == {0, 1}
    assert len(gf(16).subfield(4)) == 4
    assert len(gf(64).subfield(8)) == 8
    assert len(gf(81).subfield(9)) == 9
    with pytest.raises(UnsupportedFieldOrder):
        gf(16).subfield(8)
    for order in (1, 3):  # below 2, and not dividing 16
        with pytest.raises(UnsupportedFieldOrder):
            gf(16).subfield(order)


def test_modulus_is_irreducible_and_monic():
    for q in (4, 8, 9, 16, 25, 27):
        field = gf(q)
        assert field.modulus[-1] == 1
        # no roots in the prime field for the quadratics/cubics used here
        p = field.p
        for x in range(p):
            val = sum(c * x ** i for i, c in enumerate(field.modulus)) % p
            assert val != 0
