"""A worked corpus of directional statements in canonical notation.

Two scenes are encoded.  A sale of goods between buyer A and seller B with
their banks M_A and M_B, plus a private car loan brokered by PA.  And an
automated parking garage: a robotic pay point CP, a gate controller Q1, and
a bystander Z advising driver A.

Every entry is in canonical form: parsing and re-rendering any of them is
the identity on the text.
"""

from __future__ import annotations

__all__ = ["CORPUS_TEXTS"]

CORPUS_TEXTS = (
    # sale of goods: offer, acceptance, payment chain
    'B[propose!offer(SG):"deliver s/g against compensation m"/{M_B}]A',
    'A[propose!accept(SG):"compensate m against delivery of s/g"/{M_A}]B',
    'B[deliver(SG):"hand over s/g in agreed condition"/{A,M_B}]A',
    'A[pay(SG):"transfer compensation m on delivery"/{B,M_A}]B',
    'A[use(SG):"accept delivery of s/g"/{M_A}]B',
    'M_A[transfer(SG):"execute the payment order of a"/{A}]M_B',
    'M_B[credit(SG):"credit the received amount to b"/{B}]A',
    'A[impose!settle(SG):"settle the open invoice for s/g"@2]B',
    'B[warn!delay(SG):"delivery may slip by one week"]A',
    'B[predict!arrival(SG):"s/g arrives within three days of dispatch"]A',
    # episodic and windowed forms of the same trade
    'B[deliver(SG):(5,"hand over s/g in agreed condition",8)]A',
    'A[u=3,pay(SG):(5,"transfer compensation m on delivery",8)]B',
    'A[w=9,M_A/u=3,pay(SG):(5,"transfer compensation m on delivery",8)/{M_A}]B',
    'A[w=9,M_A(k1),fade(100,0.05)/u=3,pay(SG):(5,"transfer compensation m on delivery",8)/{B,M_A}]B',
    # the car loan
    'PA[suggest!car-loan(A):"a will use pa\'s car provided it is returned in time"]A',
    'A[borrow(CAR):"return the car by sunday evening"/{PA}]PA',
    'PA[warn!fuel(CAR):"the tank is nearly empty"]A',
    'A[predict!return(CAR):"the car is back before sunday noon"]PA',
    # adequacy promises as used by the install rules
    'p[adequacy(P,U):"p is adequate for task u"/{q,r}]q',
    'p[adequacy(Q,V):"q is adequate for task v"/{q,r}]q',
    'm2[adequacy(R,W):"r is adequate for task w"/{q,r}]q',
    's[impose!perform(U):"perform task u now"@6]q',
    # the parking garage
    'CP[impose!pay(RPPC):"pay the announced amount before exit"@3]A',
    'CP[receipt(RPPC):"issue a receipt on payment"]A',
    'Q1[warn!exit-barrier(P7):"do not exit without checking out the rppc"]A',
    'Q1[suggest!reverse(P7):"reverse and check out at the cp"]A',
    'Z[predict!exit(P7):"after checkout entry and exit will be normal"]A',
    'Z[propose!assist(P7):"z pushes the stuck barrier if asked"]A',
)
