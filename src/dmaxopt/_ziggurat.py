"""The tables of numpy's ziggurat sampler for ``Generator.standard_normal``.

:func:`tables` returns numpy's ``wi_double`` (256 float64 layer widths,
scaled by 2**-52) and ``ki_double`` (256 uint64 acceptance thresholds),
bit for bit as numpy's ``random/src/distributions/ziggurat_constants.h``
defines them.  They are kept as base85 text of the zlib-compressed
little-endian bytes, ``wi`` then ``ki``; ``tests/test_core.py`` pins them
against ``Generator.standard_normal``.
"""

import base64
import zlib

import numpy as np

_BLOB = (
    "c-l49c|2768wc={kS#~F-HKGoQjH~{JcPO-OA8WiilkE6w^RyI61tVGEHw#Z%PbiCU~DZ2E#"
    "wxWkOpOo((jo+e)G@!b-r`X`JV6gc`kG=3)D4jf%>W6pTwi1faS0So*uXZPP%(^N-o8LM5gN"
    "CuLX%v-fB*f*l-`Fope+!h-C2f_O(~dO@Z3i=37lP(jc!aMp47!A?!XXper=_5CXIe6Ef~Rg"
    "2`1uu~bDWTzz*!hf+v|$$xD*yWlaX(y7&{6_3H@!Jp{S9qEucucuW;PY2)jRnC4JpFn)`qRg"
    "vtPhdE>vqfDX1N1IEc4|AD0iHs{9co(!WX$Ys@6yVI02QWGUScNfp4^-F_Y7W(?Y4ShlLhzv"
    "FQ&TCvmmj>l134y!LZzxP~#Ic*juL)(^Nu(Et%=vFC??U?q$IFQ_k6-wp_|RkChF{=VZ>)g>"
    "pbS$msetn;h7gb|^+GJqI*Gt5n{M=fDq3yPux=xi~)>Ph@W9LewVj`KFFsFe$z&nI@M9QfvE"
    "_Q%>bUEqepe{4@`&{KsiKr}JR`TU+5*y?h`%g0>BX<wJAm&x)N*`LM}(?An*bPvOSYJL{=~P"
    "a*&9_0;omPa&5wd)eyUQy9@S>N&i)0Pe@`m^7diz^^CEQ->`JK<c5l!(opC5TEe69T8gqGEU"
    "{!E<Y`RD=*Ak^;!zxtjKb+MqUB%mc?nvOVXi|R9|Ggl@5mg#-!<+(?L$2TP1Rq4w_wot1=_$"
    "aN|7h;OZ<oJXe{SajmBVrK9I=R6iZk9vURw6kxzmJ=goBJOkF&4qcYjXTaQ9ngq*%0aw~(T~"
    "#hHVD;O-8bab3&_!W8moXV&#qM=}*UEqx+VjEAZwz>A;=Z_Aj0tKb6TLBtOnBtD$#c&hCcHl"
    "MthDbq6WopnRk~eff(wJ;@m~@X7V5F9bc>kKBYQY8qKye*_TC>Vc}(z4?eQ8AW5H41jIDE<S"
    "dgv;gT!vUZg}Q1?Z^VHTG!N%K`c;>HPI-I$96-3sp||DbT47%nl`gQC_`sCG0XyI8^_Tcp+c"
    "~a68mnkt`PRSy1o7kh0w@YZ5eQ+5CV_cND{t<uryq<J|wmf>{csm_?=w{dOnw5dDj<0`z_Ur"
    "pLz>H$1$yO|L;PmUHkYrdu0(&3#fy#nnfVKsaP;%e-U`cH`(^N6@j)oJ<KSg2<VIh%G5_iP_"
    "~;nxS*m44z(*eIln6c>lr6??vEn)dOB)akt~M#rDqPts1!pt&$D~_?_yZ%GqC-nQ!$uMjLyE"
    "fR19}3N*gT_i$Qd06g*=V!`%A!Kg?T-;mZe~TW^N({^5x9Q^IWUk7(>7*0W(*T4Xa-j|~-*u"
    "hv@Hv7s(F$YY@&8@5gxAFI91hTR;YJ2AOzNS1h%bFz^Qif(%jn)b6Hw$Mj;Cs6{%VM^UPYf9"
    "jk*r@bgof5c7U3kISx&(NyJ<DP|OF&(P68ZdA2~;KRy89Qc1h#a(zICCl1eW-EY#!+?fqiYW"
    "cv4E>j@Hi|601wWp^>_-OuH0rl!>Qau`Y#l+CFc4uTs!cf9PT!Qwk#EY5IqAN}+ku{$*feDQ"
    "GdHdRYUdu<B9me({B6;E;HK?2>#L5E4BP#q`T?zcd>bI+TH8<gSv-7s>#p2gY3z%D{bN`1`Y"
    "kWkBUn&faY=gRuON2i@ak@NoIaITNXJ*cvo8@Rm{zYZkl9+_ESKq3a_euII{OMaI`2*Qj#Hp"
    "=wpcW|zb5H@XeIP3557b6U-Ds2tp5qcns?D?ol!Tk5@11sK<FTlT@E0yd0)iI+N40Z-=MPWV"
    "JtfTz2Bl4y1XNSgkdX?s=y+LS|aufA5mnl{rp;l-6OwRf27OR0n#ud0*Q9H@ki^9ibicO{5b"
    "shF+1R|z5>)0~i^O4ykx<-eh`5@;g}oJ4+A!aA#(n;L7Y;JigKnQl}Crx!HIA9JmO(1b`q*P"
    "B&PwccxGS$-9Se^G5a-d+XbQ!A_OW~#vNVY_jMBnOO}Vg<6+aUe&47Dm(LK*OZIWtTArf|+?"
    "!x(*yTy(x1;t2+l)P)@`qhH}7~Iw+D5&jBvS%kO122TVG6uk@-opr)6tIo!^HyC;{lbPRH!C"
    "@o|3&u<PGdddsB%T&Ymqh$})DObaJQSKSpUDcpVId0-&Qw=|ODY`$;R)dptoA1ZaYRLU+d3e"
    "?RYKT$25|Br)hI<)awB)90*pc5q_qDeg7IgO2q|H`C$P2-ga+w<7wR;2^Z><4^<lOYXjccIi"
    "h<`)5Qw>n;vSt~VY9LTD;3Xxo1`dg-SZT9rAmM$ydPi#wOa{{Ei+T8b{^7O}@mhGCe%kS(3M"
    "!p1#5Ju2gRE^qZD(ph%<%9X=FM7|y^-(fms<-Nf-9JcEw$h`aXkC|_gd&0C`nFV!G(K{*2@z"
    "0xUg(z=ALF3E|l+1_H&Nrf};J|6rW-)2t>YIyzvtk40DI9(xmFZD0t_gB?fh{x_=*y?o|h!("
    "OyxUCv`C2x>Mn1cO96^MYNn*UJt`=#KmT-dZ-;pt2BtK2aP__=(F$ZK{M#sn37@x_y~(0j=R"
    "tRx0>HfZ0%?O&F{)W3wJca(o5M@WKJW*@A0_TLurB>TZ09>=S^TAa4)bs_8HKB2kNX%d=A_4"
    "L_=A+FTrhe<5j&MlEnXiS@m;?l_C;^QAowC_2b3FFt0jz>YyYMJl#HI!;mCOo&|@PjY<;Pdu"
    "GLq|00Q%&;K}m(<X_3Haf-a-A@wnk5~6UaUzNIcq_jkPm;L5M`?s{i6q)>Pe_bMki>_LVYV5"
    "uB+=Ds(V&n(5~7pu7tvBk!gn@g^7vztm@#ws;E_cV-PY~L$8$-7ELnMKu7D)!eXXL?SR@fJ@"
    "48{6m?R_z9u19@lEgQ0!IYc|lCVAZ=eQb&BuuE<QlT{@@yekuD1%E9>b#%?YCZpZlxRVXBoY"
    "3>%u(YRNvzr+F!bU%NpN?}NL#!liKLNOi^67-P-~K{TGUDspSf==_P!#C0~38&-fbiy*EF_2"
    "rkx}LS+|q!caVe?d54|&nj}V&VmOg+NJ3+<k>>uEBnCw;TAREhiCbIpqE>X0L|b0wqW{oaj#"
    "8dUT_hn-;T*MiPZF)a9RB%<UcO)QHKm&*QoL7&=>A6%w^cQ7w4p9(S}rF(kc8#IXipwWVP!1"
    "v{YVl9-;z#Fpx+hB`#pL{;s|wP&1ck{tps+xIF4QAw;IswHSdSi`$*#7)m`C<XoO*5>>Ro;+"
    "Gd->Cz4PhT9b;=D|x9yQvD>M8PKu!6#9>-d3!0U5Z9J3K7ivbx16>^rKS5DpP-QuGWw(ZcBx"
    "Jet<UJ|dcTWk_7XYQO7#20fXyFNAd|4u|3VTwQuRYGqEt`MPetf%qk!l!^wyZwZKXky*tuf+"
    "oFnQYa;^I=THZWn*nm!1Ue@`E%09UMLV1WJhHtcs+M(3@cjqEdR}-&XCi=SQ-lmV}rO!D&qQ"
    "kh(uH(rX=$1H*9D8(?@9T^ZbZpIsgiKVv^GEm#6h5B}97APBRQ+YX;=HKLhi^w&&g%Jx(b;Q"
    "#6aMH@`OnAV(Mu^U6D+jVbb{T6>Qmh5qv&9T+$Zr7l2~R>KctAZKTQ!dLgUAke><QPymJPAC"
    "`;l%TQn-Y_TQo>=)59#tepScob|PKl-YR0cL**1_X>9&RSMr8AoGnR7Mfm*RYc8I6{K`g_ak"
    "|87U+MqiPp!_!TpA^-e@ST-!=?w+>$PQ4;3s9-<*!J+<Y6E=pk3bk2QSV)4g7y?KdIhBYHLI"
    "Hu()*+Cj?AqFgiSd|@6*2-|mZq|qMX+qQD3!bvk9Wwg9sY?&qs57>J8=tQV8&lrs;kX1a08e"
    "TCNvg7ghtI~F7bUfjRxEmU@NdKG{8hTOVNFZ7&e6b}MW$ZI)yN2#QQFQz!da&_DP%PTDF<AZ"
    "{I;@;^FcJO7L`E{1-=B}SO&Xg2!da1u<{F(1OGmx7{yLq3&c1Pfn~93e3N~k<y4wcLXsDEn@"
    "&Ue%i#VP9c5DC0FZ}xyWK9D3&xNH@Z}Q*M)xTbr|6T?8?G%1Ll&71@AE5o;73vbuonl~o7hU"
    "dWV-Uk1SF%?A4fMC(m6%ZU20Qb^Mf8vMp9jAD{wip-=g?px^^gnyf2GHNJD^3jmP!2iY7r*("
    "@#pWrmR>7B->LL4)KH<&JZA;e9@vg6P~)X4R8jPW=_kcGT&HvE{D;4y!Gi1i-}BdVN3-N}bY"
    "hF3O9|SfGt`}dMh|Iw-$k{ubk<x!H*-qb&Y(oTaI_V=KK+9spzl=OzHC7Ed{*@lLpA3Yb&cX"
    "aWEV?Hb@2DEdz?ryTCFBsl!yk>7K>fr?_+gx(iU}Yig4YIZfCO0m!Pd4G55aW`M6W`P??K%O"
    "YkP|qekIPy&h=l+Pron)NHGG0ss6B39Pc~!}DmnJ}EyR-SjCYIuIT3`Q5S$o$8D>7esXrtG="
    "nj^PX-@)4hf&8Os{)Lf_Q+S4?4Ed>-T;%|?gmK|OY;0qypbAj;VmYLbJw^TchfpE)W(RgoIR"
    "oO+j2^zbqotfrGDff`Ng_}s&MyXu|bxfDGzq16$Ed8jS-yXq(AWip+&{U|!$uPR-Ld1`Buw2"
    "(lTh6RQK=5E0$9``inakkgyf>6xq?D^oj>zLoab?Zg_FxO?Oln3@=-iHcMW@fM+_?0qx!?8X"
    "HwwR25#`+<CvLa6g>xuMOpXmauGr0|{%tx>I^W`tthxLiE#PMAg)~)qhU%Iz7VEtP!r@FZo_"
    "a&PXauVyHrZvG8F2Z`Mq;kXn>u2KM3*-_~N#d7my2)%L=Azozbe${a-I{G?_Nz$Zf2Ds*{r"
)


def tables():
    """``(wi, ki)``: the float64 widths and uint64 thresholds."""
    raw = zlib.decompress(base64.b85decode(_BLOB))
    return (np.frombuffer(raw[:2048], dtype="<f8").copy(),
            np.frombuffer(raw[2048:], dtype="<u8").copy())
