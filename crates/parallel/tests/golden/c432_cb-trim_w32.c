/* parallel-technique unit-delay simulation of `c432` (cycle-breaking+trimming) */
#include <stdint.h>
typedef uint32_t word;
static word pi0 = 0;
static word pi1 = 0;
static word pi2 = 0;
static word pi3 = 0;
static word pi4 = 0;
static word pi5 = 0;
static word pi6 = 0;
static word pi7 = 0;
static word pi8 = 0;
static word pi9 = 0;
static word pi10 = 0;
static word pi11 = 0;
static word pi12 = 0;
static word pi13 = 0;
static word pi14 = 0;
static word pi15 = 0;
static word pi16 = 0;
static word pi17 = 0;
static word pi18 = 0;
static word pi19 = 0;
static word pi20 = 0;
static word pi21 = 0;
static word pi22 = 0;
static word pi23 = 0;
static word pi24 = 0;
static word pi25 = 0;
static word pi26 = 0;
static word pi27 = 0;
static word pi28 = 0;
static word pi29 = 0;
static word pi30 = 0;
static word pi31 = 0;
static word pi32 = 0;
static word pi33 = 0;
static word pi34 = 0;
static word pi35 = 0;
static word n1_0 = 0;
static word n1_1 = ~(word)0;
static word n1_2 = 0;
static word n1_3 = 0;
static word n1_4 = ~(word)0;
static word n1_5 = 0;
static word n1_6 = 0;
static word n1_7 = 0;
static word n1_8 = 0;
static word n1_9 = ~(word)0;
static word n1_10 = 0;
static word n1_11 = 0;
static word n1_12 = 0;
static word n1_13 = 0;
static word n1_14 = ~(word)0;
static word n1_15 = ~(word)0;
static word n2_0 = 0;
static word n2_1 = ~(word)0;
static word n2_2 = 0;
static word n2_3 = 0;
static word n2_4 = ~(word)0;
static word n2_5 = 0;
static word n2_6 = 0;
static word n2_7 = ~(word)0;
static word n3_0 = ~(word)0;
static word n3_1 = 0;
static word n3_2 = 0;
static word n3_3 = 0;
static word n3_4 = ~(word)0;
static word n3_5 = 0;
static word n3_6 = 0;
static word n3_7 = 0;
static word n4_0 = 0;
static word n4_1 = ~(word)0;
static word n4_2 = 0;
static word n4_3 = 0;
static word n4_4 = 0;
static word n4_5 = 0;
static word n4_6 = 0;
static word n4_7 = ~(word)0;
static word n4_8 = ~(word)0;
static word n5_0 = 0;
static word n5_1 = ~(word)0;
static word n5_2 = ~(word)0;
static word n5_3 = 0;
static word n5_4 = 0;
static word n5_5 = 0;
static word n5_6 = 0;
static word n5_7 = 0;
static word n6_0 = 0;
static word n6_1 = 0;
static word n6_2 = ~(word)0;
static word n6_3 = 0;
static word n6_4 = 0;
static word n6_5 = 0;
static word n6_6 = ~(word)0;
static word n7_0 = ~(word)0;
static word n7_1 = 0;
static word n7_2 = 0;
static word n7_3 = ~(word)0;
static word n7_4 = 0;
static word n7_5 = 0;
static word n7_6 = ~(word)0;
static word n7_7 = ~(word)0;
static word n7_8 = 0;
static word n7_9 = ~(word)0;
static word n7_10 = 0;
static word n7_11 = ~(word)0;
static word n7_12 = ~(word)0;
static word n8_0 = ~(word)0;
static word n8_1 = ~(word)0;
static word n8_2 = ~(word)0;
static word n8_3 = 0;
static word n8_4 = 0;
static word n8_5 = 0;
static word n8_6 = ~(word)0;
static word n8_7 = ~(word)0;
static word n8_8 = ~(word)0;
static word n8_9 = 0;
static word n8_10 = 0;
static word n9_0 = ~(word)0;
static word n9_1 = 0;
static word n9_2 = 0;
static word n9_3 = 0;
static word n9_4 = 0;
static word n9_5 = ~(word)0;
static word n9_6 = 0;
static word n9_7 = ~(word)0;
static word n10_0 = ~(word)0;
static word n10_1 = 0;
static word n10_2 = 0;
static word n10_3 = ~(word)0;
static word n10_4 = 0;
static word n10_5 = ~(word)0;
static word n10_6 = ~(word)0;
static word n10_7 = 0;
static word n10_8 = ~(word)0;
static word n10_9 = 0;
static word n11_0 = ~(word)0;
static word n11_1 = 0;
static word n11_2 = 0;
static word n11_3 = ~(word)0;
static word n11_4 = ~(word)0;
static word n11_5 = 0;
static word n11_6 = 0;
static word n11_7 = ~(word)0;
static word n11_8 = 0;
static word n11_9 = 0;
static word n12_0 = 0;
static word n12_1 = ~(word)0;
static word n12_2 = 0;
static word n12_3_w0 = ~(word)0;
static word n12_3_w1 = ~(word)0;
static word n12_4 = 0;
static word n12_5 = 0;
static word n12_6 = ~(word)0;
static word n12_7 = ~(word)0;
static word n12_8 = ~(word)0;
static word n12_9 = 0;
static word n12_10 = ~(word)0;
static word n13_0 = 0;
static word n13_1 = 0;
static word n13_2 = 0;
static word n13_3 = 0;
static word n13_4 = ~(word)0;
static word n13_5_w0 = ~(word)0;
static word n13_5_w1 = ~(word)0;
static word n13_6 = ~(word)0;
static word n13_7 = 0;
static word n14_0_w0 = 0;
static word n14_0_w1 = 0;
static word n14_1_w0 = ~(word)0;
static word n14_1_w1 = ~(word)0;
static word n14_2 = 0;
static word n14_3 = ~(word)0;
static word n14_4_w0 = ~(word)0;
static word n14_4_w1 = ~(word)0;
static word n15_0 = ~(word)0;
static word n15_1 = 0;
static word n15_2_w0 = 0;
static word n15_2_w1 = 0;
static word n15_3 = 0;
static word n15_4_w0 = 0;
static word n15_4_w1 = 0;
static word n15_5_w0 = ~(word)0;
static word n15_5_w1 = ~(word)0;
static word n15_6_w0 = 0;
static word n15_6_w1 = 0;
static word n15_7 = ~(word)0;
static word n16_0 = 0;
static word n16_1_w0 = ~(word)0;
static word n16_1_w1 = ~(word)0;
static word n16_2 = 0;
static word n16_3_w0 = ~(word)0;
static word n16_3_w1 = ~(word)0;
static word n16_4_w0 = ~(word)0;
static word n16_4_w1 = ~(word)0;
static word n16_5_w0 = 0;
static word n16_5_w1 = 0;
static word n16_6 = ~(word)0;
static word n16_7_w0 = ~(word)0;
static word n16_7_w1 = ~(word)0;
static word n16_8_w0 = ~(word)0;
static word n16_8_w1 = ~(word)0;
static word n17_0_w0 = ~(word)0;
static word n17_0_w1 = ~(word)0;
static word n17_1_w0 = 0;
static word n17_1_w1 = 0;
static word n17_2_w0 = 0;
static word n17_2_w1 = 0;
static word n17_3_w0 = ~(word)0;
static word n17_3_w1 = ~(word)0;
static word n17_4_w0 = ~(word)0;
static word n17_4_w1 = ~(word)0;
static word n17_5_w0 = 0;
static word n17_5_w1 = 0;
static word n17_6 = 0;
static word n17_7 = ~(word)0;
static word n17_8_w0 = 0;
static word n17_8_w1 = 0;
static word n17_9 = 0;
static word n17_10_w0 = 0;
static word n17_10_w1 = 0;
static word t219 = 0;
static word t220 = 0;
static word t221 = 0;
static word t222 = 0;
static word t223 = 0;
static word t224 = 0;
static word t225 = 0;
static word t226 = 0;
static word t227 = 0;
static word t228 = 0;
static word t229 = 0;
static word t230 = 0;
static word t231 = 0;
static word t232 = 0;
static word t233 = 0;
static word t234 = 0;
static word t235 = 0;
static word t236 = 0;
static word t237 = 0;
static word t238 = 0;
static word t239 = 0;
static word t240 = 0;
static word t241 = 0;
static word t242 = 0;
static word t243 = 0;
static word t244 = 0;
static word t245 = 0;
static word t246 = 0;
static word t247 = 0;
static word t248 = 0;

void simulate_one_vector(const word *pi)
{
    { /* input 0: 22 previous-value bit(s) */
        const word uds_p = (word)0 - (pi0 >> 22 & (word)1);
        const word uds_n = (word)0 - pi[0];
        pi0 = (uds_p & (word)0x3fffff) | (uds_n & ~(word)0x3fffff);
    }
    { /* input 1: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi1 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[1];
        pi1 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 2: 22 previous-value bit(s) */
        const word uds_p = (word)0 - (pi2 >> 22 & (word)1);
        const word uds_n = (word)0 - pi[2];
        pi2 = (uds_p & (word)0x3fffff) | (uds_n & ~(word)0x3fffff);
    }
    { /* input 3: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi3 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[3];
        pi3 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 4: 17 previous-value bit(s) */
        const word uds_p = (word)0 - (pi4 >> 17 & (word)1);
        const word uds_n = (word)0 - pi[4];
        pi4 = (uds_p & (word)0x1ffff) | (uds_n & ~(word)0x1ffff);
    }
    { /* input 5: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi5 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[5];
        pi5 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 6: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi6 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[6];
        pi6 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 7: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi7 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[7];
        pi7 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 8: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi8 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[8];
        pi8 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 9: 2 previous-value bit(s) */
        const word uds_p = (word)0 - (pi9 >> 2 & (word)1);
        const word uds_n = (word)0 - pi[9];
        pi9 = (uds_p & (word)0x3) | (uds_n & ~(word)0x3);
    }
    { /* input 10: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi10 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[10];
        pi10 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 11: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi11 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[11];
        pi11 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 12: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi12 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[12];
        pi12 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 13: 2 previous-value bit(s) */
        const word uds_p = (word)0 - (pi13 >> 2 & (word)1);
        const word uds_n = (word)0 - pi[13];
        pi13 = (uds_p & (word)0x3) | (uds_n & ~(word)0x3);
    }
    { /* input 14: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi14 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[14];
        pi14 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 15: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi15 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[15];
        pi15 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 16: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi16 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[16];
        pi16 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 17: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi17 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[17];
        pi17 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 18: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi18 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[18];
        pi18 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 19: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi19 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[19];
        pi19 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 20: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi20 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[20];
        pi20 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 21: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi21 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[21];
        pi21 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 22: 4 previous-value bit(s) */
        const word uds_p = (word)0 - (pi22 >> 4 & (word)1);
        const word uds_n = (word)0 - pi[22];
        pi22 = (uds_p & (word)0xf) | (uds_n & ~(word)0xf);
    }
    { /* input 23: 2 previous-value bit(s) */
        const word uds_p = (word)0 - (pi23 >> 2 & (word)1);
        const word uds_n = (word)0 - pi[23];
        pi23 = (uds_p & (word)0x3) | (uds_n & ~(word)0x3);
    }
    { /* input 24: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi24 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[24];
        pi24 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 25: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi25 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[25];
        pi25 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 26: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi26 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[26];
        pi26 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 27: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi27 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[27];
        pi27 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 28: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi28 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[28];
        pi28 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 29: 7 previous-value bit(s) */
        const word uds_p = (word)0 - (pi29 >> 7 & (word)1);
        const word uds_n = (word)0 - pi[29];
        pi29 = (uds_p & (word)0x7f) | (uds_n & ~(word)0x7f);
    }
    { /* input 30: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi30 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[30];
        pi30 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 31: 4 previous-value bit(s) */
        const word uds_p = (word)0 - (pi31 >> 4 & (word)1);
        const word uds_n = (word)0 - pi[31];
        pi31 = (uds_p & (word)0xf) | (uds_n & ~(word)0xf);
    }
    { /* input 32: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi32 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[32];
        pi32 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 33: 2 previous-value bit(s) */
        const word uds_p = (word)0 - (pi33 >> 2 & (word)1);
        const word uds_n = (word)0 - pi[33];
        pi33 = (uds_p & (word)0x3) | (uds_n & ~(word)0x3);
    }
    { /* input 34: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (pi34 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[34];
        pi34 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 35: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi35 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[35];
        pi35 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (pi29 & (word)1);
        const word uds_tf = (word)0 - (pi29 >> 7 & (word)1);
        const word uds_st = (pi29 & (word)0xff) | (uds_tf & ~(word)0xff);
        t229 = (uds_st >> 4) | (uds_tf << 28);
    }
    n1_11 = pi15 & t229 & pi1;
    n1_3 = pi2;
    n1_15 = ~(pi7 & pi19 & pi16 & pi3 & pi15);
    t247 = ~(n1_15 & n1_11);
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 3 & (word)1);
        const word uds_st = (t247 & (word)0xf) | (uds_tf & ~(word)0xf);
        n2_1 = (uds_bf >> 15) | (uds_st << 17);
    }
    t219 = (word)0 - (n2_1 >> 20 & 1);
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (pi4 & (word)1);
        const word uds_tf = (word)0 - (pi4 >> 17 & (word)1);
        const word uds_st = (pi4 & (word)0x3ffff) | (uds_tf & ~(word)0x3ffff);
        t229 = (uds_st >> 15) | (uds_tf << 17);
    }
    n1_2 = pi23 | t229;
    n1_14 = ~(pi5 | pi32);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (pi20 & (word)1);
        const word uds_tf = (word)0 - (pi20 >> 12 & (word)1);
        const word uds_st = (pi20 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        t229 = (uds_st >> 9) | (uds_tf << 23);
    }
    t247 = ~(t229 & pi5 & pi24);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 3 & (word)1);
        const word uds_st = (t247 & (word)0xf) | (uds_tf & ~(word)0xf);
        n1_4 = (uds_bf >> 31) | (uds_st << 1);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (pi17 & (word)1);
        const word uds_tf = (word)0 - (pi17 >> 3 & (word)1);
        const word uds_st = (pi17 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (uds_bf >> 23) | (uds_st << 9);
    }
    n1_1 = ~(pi26 & pi6 & t229);
    n1_13 = pi7 & pi15 & pi21 & pi34;
    n1_8 = pi15 & pi12 & pi8;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (pi9 & (word)1);
        const word uds_tf = (word)0 - (pi9 >> 2 & (word)1);
        const word uds_st = (pi9 & (word)0x7) | (uds_tf & ~(word)0x7);
        t229 = (uds_bf >> 31) | (uds_st << 1);
    }
    n1_9 = ~(pi28 & t229 & pi24);
    t247 = pi20 | pi26 | pi10 | pi35;
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 12 & (word)1);
        const word uds_st = (t247 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        n1_5 = (uds_bf >> 21) | (uds_st << 11);
    }
    n2_0 = n1_5 & pi0;
    n1_12 = pi35 & pi18 & pi11;
    t247 = ~(n1_12 | n1_1);
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 12 & (word)1);
        const word uds_st = (t247 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        n2_5 = (uds_bf >> 21) | (uds_st << 11);
    }
    n3_7 = n2_0 | n2_5;
    { /* shifted field presentation (+3) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_bf >> 29) | (uds_st << 3);
    }
    n3_6 = ~(t229 | n1_3 | n2_5);
    t220 = (word)0 - (n3_6 >> 23 & 1);
    { /* shifted field presentation (-18) */
        const word uds_bf = (word)0 - (n2_5 & (word)1);
        const word uds_tf = (word)0 - (n2_5 >> 23 & (word)1);
        const word uds_st = (n2_5 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 18) | (uds_tf << 14);
    }
    n3_1 = t229 ^ pi27;
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (pi26 & (word)1);
        const word uds_tf = (word)0 - (pi26 >> 12 & (word)1);
        const word uds_st = (pi26 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        t229 = (uds_st >> 9) | (uds_tf << 23);
    }
    n1_0 = pi14 & pi25 & t229;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n1_4 & (word)1);
        const word uds_tf = (word)0 - (n1_4 >> 4 & (word)1);
        const word uds_st = (n1_4 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (uds_st >> 1) | (uds_tf << 31);
    }
    n2_4 = ~(n1_0 & n1_9 & t229 & t229);
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n1_2 & (word)1);
        const word uds_tf = (word)0 - (n1_2 >> 2 & (word)1);
        const word uds_st = (n1_2 & (word)0x7) | (uds_tf & ~(word)0x7);
        t229 = (uds_bf >> 15) | (uds_st << 17);
    }
    { /* shifted field presentation (+16) */
        const word uds_bf = (word)0 - (n1_13 & (word)1);
        const word uds_tf = (word)0 - (n1_13 >> 3 & (word)1);
        const word uds_st = (n1_13 & (word)0xf) | (uds_tf & ~(word)0xf);
        t231 = (uds_bf >> 16) | (uds_st << 16);
    }
    { /* shifted field presentation (+16) */
        const word uds_bf = (word)0 - (n1_0 & (word)1);
        const word uds_tf = (word)0 - (n1_0 >> 3 & (word)1);
        const word uds_st = (n1_0 & (word)0xf) | (uds_tf & ~(word)0xf);
        t233 = (uds_bf >> 16) | (uds_st << 16);
    }
    n2_2 = t229 | t231 | t233;
    n1_6 = pi30 | pi17;
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n1_6 & (word)1);
        const word uds_tf = (word)0 - (n1_6 >> 3 & (word)1);
        const word uds_st = (n1_6 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (uds_bf >> 23) | (uds_st << 9);
    }
    t247 = ~(n1_1 ^ t229);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 12 & (word)1);
        const word uds_st = (t247 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        n2_6 = (uds_st >> 9) | (uds_tf << 23);
    }
    n3_2 = ~(n2_6 | n2_4);
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n3_2 & (word)1);
        const word uds_tf = (word)0 - (n3_2 >> 3 & (word)1);
        const word uds_st = (n3_2 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (uds_bf >> 12) | (uds_st << 20);
    }
    t247 = n3_6 | n3_7 | n3_7 | t229;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 23 & (word)1);
        const word uds_st = (t247 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        n4_4 = (uds_st >> 1) | (uds_tf << 31);
    }
    t221 = (word)0 - (n4_4 >> 22 & 1);
    n1_7 = pi20 & pi18;
    t247 = n1_7 & n1_12;
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 12 & (word)1);
        const word uds_st = (t247 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        n2_3 = (uds_st >> 8) | (uds_tf << 24);
    }
    n3_5 = n2_3;
    { /* shifted field presentation (-20) */
        const word uds_bf = (word)0 - (n2_5 & (word)1);
        const word uds_tf = (word)0 - (n2_5 >> 23 & (word)1);
        const word uds_st = (n2_5 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 20) | (uds_tf << 12);
    }
    n4_0 = n3_5 & n2_6 & t229;
    { /* shifted field presentation (+3) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_bf >> 29) | (uds_st << 3);
    }
    { /* shifted field presentation (+19) */
        const word uds_bf = (word)0 - (n1_14 & (word)1);
        const word uds_tf = (word)0 - (n1_14 >> 3 & (word)1);
        const word uds_st = (n1_14 & (word)0xf) | (uds_tf & ~(word)0xf);
        t231 = (uds_bf >> 13) | (uds_st << 19);
    }
    { /* shifted field presentation (+19) */
        const word uds_bf = (word)0 - (n1_8 & (word)1);
        const word uds_tf = (word)0 - (n1_8 >> 3 & (word)1);
        const word uds_st = (n1_8 & (word)0xf) | (uds_tf & ~(word)0xf);
        t233 = (uds_bf >> 13) | (uds_st << 19);
    }
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (n2_2 & (word)1);
        const word uds_tf = (word)0 - (n2_2 >> 19 & (word)1);
        const word uds_st = (n2_2 & (word)0xfffff) | (uds_tf & ~(word)0xfffff);
        t235 = (uds_bf >> 28) | (uds_st << 4);
    }
    { /* shifted field presentation (+19) */
        const word uds_bf = (word)0 - (n2_3 & (word)1);
        const word uds_tf = (word)0 - (n2_3 >> 4 & (word)1);
        const word uds_st = (n2_3 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t237 = (uds_bf >> 13) | (uds_st << 19);
    }
    t247 = n2_0 | t229 | t231 | t233 | t235 | t237;
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 23 & (word)1);
        const word uds_st = (t247 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        n3_4 = (uds_st >> 10) | (uds_tf << 22);
    }
    n4_8 = n3_4;
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n4_8 & (word)1);
        const word uds_tf = (word)0 - (n4_8 >> 13 & (word)1);
        const word uds_st = (n4_8 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_st >> 8) | (uds_tf << 24);
    }
    t247 = t229 & n3_5;
    { /* shifted field presentation (+18) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 5 & (word)1);
        const word uds_st = (t247 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        n5_7 = (uds_bf >> 14) | (uds_st << 18);
    }
    t224 = (word)0 - (n5_7 >> 23 & 1);
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n5_7 & (word)1);
        const word uds_tf = (word)0 - (n5_7 >> 23 & (word)1);
        const word uds_st = (n5_7 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 16) | (uds_tf << 16);
    }
    t247 = ~(t229 & n1_9);
    { /* shifted field presentation (+14) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 7 & (word)1);
        const word uds_st = (t247 & (word)0xff) | (uds_tf & ~(word)0xff);
        n6_6 = (uds_bf >> 18) | (uds_st << 14);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (n6_6 & (word)1);
        const word uds_tf = (word)0 - (n6_6 >> 21 & (word)1);
        const word uds_st = (n6_6 & (word)0x3fffff) | (uds_tf & ~(word)0x3fffff);
        t229 = (uds_st >> 12) | (uds_tf << 20);
    }
    n7_11 = t229 | t229;
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n3_1 & (word)1);
        const word uds_tf = (word)0 - (n3_1 >> 5 & (word)1);
        const word uds_st = (n3_1 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        t229 = (uds_bf >> 15) | (uds_st << 17);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n3_4 & (word)1);
        const word uds_tf = (word)0 - (n3_4 >> 13 & (word)1);
        const word uds_st = (n3_4 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t231 = (uds_bf >> 23) | (uds_st << 9);
    }
    n4_5 = t229 & t231;
    t222 = (word)0 - (n4_5 >> 22 & 1);
    n1_10 = pi22 & pi31;
    n2_7 = ~(n1_4 & n1_10);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (n3_5 & (word)1);
        const word uds_tf = (word)0 - (n3_5 >> 4 & (word)1);
        const word uds_st = (n3_5 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (uds_bf >> 31) | (uds_st << 1);
    }
    t247 = ~(n3_1 | t229 | n2_7);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 5 & (word)1);
        const word uds_st = (t247 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        n4_3 = (uds_st >> 1) | (uds_tf << 31);
    }
    t247 = n2_7 & n2_3;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 4 & (word)1);
        const word uds_st = (t247 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        n3_3 = (uds_bf >> 31) | (uds_st << 1);
    }
    t247 = ~(n3_3 ^ n1_8);
    { /* shifted field presentation (+10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 5 & (word)1);
        const word uds_st = (t247 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        n4_1 = (uds_bf >> 22) | (uds_st << 10);
    }
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (n4_1 & (word)1);
        const word uds_tf = (word)0 - (n4_1 >> 15 & (word)1);
        const word uds_st = (n4_1 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_st >> 9) | (uds_tf << 23);
    }
    t247 = ~(t229 | n1_11);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 6 & (word)1);
        const word uds_st = (t247 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        n5_5 = (uds_bf >> 31) | (uds_st << 1);
    }
    t247 = n5_5 & n1_9;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 7 & (word)1);
        const word uds_st = (t247 & (word)0xff) | (uds_tf & ~(word)0xff);
        n6_1 = (uds_bf >> 31) | (uds_st << 1);
    }
    n5_2 = n4_1 & n1_1;
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n5_7 & (word)1);
        const word uds_tf = (word)0 - (n5_7 >> 23 & (word)1);
        const word uds_st = (n5_7 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 8) | (uds_tf << 24);
    }
    n6_2 = n5_2 | t229;
    n7_2 = ~(n6_2 & n4_8);
    t247 = ~n4_1;
    { /* shifted field presentation (+8) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n5_0 = (uds_bf >> 24) | (uds_st << 8);
    }
    t223 = (word)0 - (n5_0 >> 23 & 1);
    { /* shifted field presentation (-19) */
        const word uds_bf = (word)0 - (n2_5 & (word)1);
        const word uds_tf = (word)0 - (n2_5 >> 23 & (word)1);
        const word uds_st = (n2_5 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 19) | (uds_tf << 13);
    }
    t247 = ~(t229 & n2_7);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 4 & (word)1);
        const word uds_st = (t247 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        n3_0 = (uds_bf >> 31) | (uds_st << 1);
    }
    n4_7 = n3_0 | pi13 | n2_7;
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n4_7 & (word)1);
        const word uds_tf = (word)0 - (n4_7 >> 5 & (word)1);
        const word uds_st = (n4_7 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        t229 = (uds_bf >> 15) | (uds_st << 17);
    }
    t247 = n4_4 & n4_5 & t229;
    { /* shifted field presentation (-17) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 22 & (word)1);
        const word uds_st = (t247 & (word)0x7fffff) | (uds_tf & ~(word)0x7fffff);
        n5_6 = (uds_st >> 17) | (uds_tf << 15);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n3_0 & (word)1);
        const word uds_tf = (word)0 - (n3_0 >> 5 & (word)1);
        const word uds_st = (n3_0 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        t229 = (uds_bf >> 23) | (uds_st << 9);
    }
    t247 = ~(t229 & n1_1);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 14 & (word)1);
        const word uds_st = (t247 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        n4_6 = (uds_st >> 1) | (uds_tf << 31);
    }
    t247 = n4_6 & n4_8;
    { /* shifted field presentation (+8) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 13 & (word)1);
        const word uds_st = (t247 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        n5_4 = (uds_bf >> 24) | (uds_st << 8);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n5_4 & (word)1);
        const word uds_tf = (word)0 - (n5_4 >> 21 & (word)1);
        const word uds_st = (n5_4 & (word)0x3fffff) | (uds_tf & ~(word)0x3fffff);
        t229 = (uds_st >> 14) | (uds_tf << 18);
    }
    t247 = n5_5 ^ t229;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 7 & (word)1);
        const word uds_st = (t247 & (word)0xff) | (uds_tf & ~(word)0xff);
        n6_0 = (uds_bf >> 31) | (uds_st << 1);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n4_6 & (word)1);
        const word uds_tf = (word)0 - (n4_6 >> 13 & (word)1);
        const word uds_st = (n4_6 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_bf >> 23) | (uds_st << 9);
    }
    t247 = ~(t229 | n4_4);
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 22 & (word)1);
        const word uds_st = (t247 & (word)0x7fffff) | (uds_tf & ~(word)0x7fffff);
        n5_1 = (uds_st >> 16) | (uds_tf << 16);
    }
    t247 = ~(n5_1 & n2_4);
    { /* shifted field presentation (+14) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 6 & (word)1);
        const word uds_st = (t247 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        n6_4 = (uds_bf >> 18) | (uds_st << 14);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 12) | (uds_tf << 20);
    }
    t247 = n6_0 | t229;
    { /* shifted field presentation (+16) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 8 & (word)1);
        const word uds_st = (t247 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        n7_10 = (uds_bf >> 16) | (uds_st << 16);
    }
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (n7_10 & (word)1);
        const word uds_tf = (word)0 - (n7_10 >> 24 & (word)1);
        const word uds_st = (n7_10 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_st >> 15) | (uds_tf << 17);
    }
    n8_7 = ~(t229 | n1_6);
    n8_1 = ~(n7_10 ^ n2_2 ^ pi4);
    n9_5 = n8_1 | n5_4;
    n10_8 = n9_5 | n6_6;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (n6_1 & (word)1);
        const word uds_tf = (word)0 - (n6_1 >> 8 & (word)1);
        const word uds_st = (n6_1 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t229 = (uds_bf >> 31) | (uds_st << 1);
    }
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t231 = (uds_st >> 11) | (uds_tf << 21);
    }
    n7_9 = ~(t229 & t231);
    n8_6 = n7_9 ^ pi33;
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 12) | (uds_tf << 20);
    }
    n7_8 = t229 & pi9 & n1_11;
    { /* shifted field presentation (+7) */
        const word uds_bf = (word)0 - (n6_1 & (word)1);
        const word uds_tf = (word)0 - (n6_1 >> 8 & (word)1);
        const word uds_st = (n6_1 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t229 = (uds_bf >> 25) | (uds_st << 7);
    }
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (n6_6 & (word)1);
        const word uds_tf = (word)0 - (n6_6 >> 21 & (word)1);
        const word uds_st = (n6_6 & (word)0x3fffff) | (uds_tf & ~(word)0x3fffff);
        t231 = (uds_st >> 6) | (uds_tf << 26);
    }
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t233 = (uds_st >> 5) | (uds_tf << 27);
    }
    t247 = ~(t229 & t231 & n6_2 & t233);
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n7_0 = (uds_st >> 6) | (uds_tf << 26);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 16) | (uds_tf << 16);
    }
    n8_8 = ~(n7_0 & t229 & n6_0);
    { /* shifted field presentation (-17) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 17) | (uds_tf << 15);
    }
    t247 = ~(n8_8 & n8_7 & t229);
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 9 & (word)1);
        const word uds_st = (t247 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        n9_2 = (uds_bf >> 28) | (uds_st << 4);
    }
    { /* shifted field presentation (-17) */
        const word uds_bf = (word)0 - (n5_0 & (word)1);
        const word uds_tf = (word)0 - (n5_0 >> 23 & (word)1);
        const word uds_st = (n5_0 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t229 = (uds_st >> 17) | (uds_tf << 15);
    }
    n6_3 = ~(n5_1 | t229);
    t247 = n6_3 & n4_3;
    { /* shifted field presentation (+3) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 6 & (word)1);
        const word uds_st = (t247 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        n7_1 = (uds_bf >> 29) | (uds_st << 3);
    }
    n8_10 = n7_11 & n7_1;
    { /* shifted field presentation (+15) */
        const word uds_bf = (word)0 - (n8_10 & (word)1);
        const word uds_tf = (word)0 - (n8_10 >> 9 & (word)1);
        const word uds_st = (n8_10 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        t229 = (uds_bf >> 17) | (uds_st << 15);
    }
    t247 = ~(t229 ^ n8_1);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n9_3 = (uds_st >> 9) | (uds_tf << 23);
    }
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (n3_5 & (word)1);
        const word uds_tf = (word)0 - (n3_5 >> 4 & (word)1);
        const word uds_st = (n3_5 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (uds_bf >> 31) | (uds_st << 1);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t231 = (uds_st >> 16) | (uds_tf << 16);
    }
    t247 = ~(t229 | n3_0 | t231);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 5 & (word)1);
        const word uds_st = (t247 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        n4_2 = (uds_bf >> 31) | (uds_st << 1);
    }
    n7_12 = ~(n6_0 ^ n4_2);
    n7_5 = n6_1 | n4_2;
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n7_10 & (word)1);
        const word uds_tf = (word)0 - (n7_10 >> 24 & (word)1);
        const word uds_st = (n7_10 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_st >> 16) | (uds_tf << 16);
    }
    n8_9 = t229 & n7_8 & n7_5;
    { /* shifted field presentation (+2) */
        const word uds_bf = (word)0 - (n4_0 & (word)1);
        const word uds_tf = (word)0 - (n4_0 >> 4 & (word)1);
        const word uds_st = (n4_0 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (uds_bf >> 30) | (uds_st << 2);
    }
    n5_3 = t229 & n4_2;
    n6_5 = n5_3 & n1_2;
    t247 = ~(n6_5 | n5_6);
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 6 & (word)1);
        const word uds_st = (t247 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        n7_7 = (uds_bf >> 23) | (uds_st << 9);
    }
    n8_4 = ~(n7_2 | n7_7);
    n9_6 = n8_4 & pi29;
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (n9_2 & (word)1);
        const word uds_tf = (word)0 - (n9_2 >> 13 & (word)1);
        const word uds_st = (n9_2 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_bf >> 21) | (uds_st << 11);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n9_6 & (word)1);
        const word uds_tf = (word)0 - (n9_6 >> 15 & (word)1);
        const word uds_st = (n9_6 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t231 = (uds_bf >> 23) | (uds_st << 9);
    }
    n10_6 = ~(t229 & t231);
    n11_8 = n10_8 ^ n6_4 ^ n10_6;
    { /* shifted field presentation (+6) */
        const word uds_bf = (word)0 - (n11_8 & (word)1);
        const word uds_tf = (word)0 - (n11_8 >> 24 & (word)1);
        const word uds_st = (n11_8 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_bf >> 26) | (uds_st << 6);
    }
    { /* shifted field presentation (+7) */
        const word uds_bf = (word)0 - (pi18 & (word)1);
        const word uds_tf = (word)0 - (pi18 >> 12 & (word)1);
        const word uds_st = (pi18 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        t231 = (uds_bf >> 25) | (uds_st << 7);
    }
    n12_2 = t229 ^ t231;
    n13_2 = n12_2;
    { /* shifted field presentation (+12) */
        const word uds_bf = (word)0 - (pi23 & (word)1);
        const word uds_tf = (word)0 - (pi23 >> 2 & (word)1);
        const word uds_st = (pi23 & (word)0x7) | (uds_tf & ~(word)0x7);
        t229 = (uds_bf >> 20) | (uds_st << 12);
    }
    t247 = n10_6 ^ t229;
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n11_7 = (uds_st >> 10) | (uds_tf << 22);
    }
    { /* shifted field presentation (+7) */
        const word uds_bf = (word)0 - (n8_9 & (word)1);
        const word uds_tf = (word)0 - (n8_9 >> 8 & (word)1);
        const word uds_st = (n8_9 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t229 = (uds_bf >> 25) | (uds_st << 7);
    }
    t247 = n8_4 | t229;
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n9_1 = (uds_st >> 5) | (uds_tf << 27);
    }
    n10_7 = n9_1 & n8_6;
    { /* shifted field presentation (+5) */
        const word uds_bf = (word)0 - (n9_1 & (word)1);
        const word uds_tf = (word)0 - (n9_1 >> 10 & (word)1);
        const word uds_st = (n9_1 & (word)0x7ff) | (uds_tf & ~(word)0x7ff);
        t229 = (uds_bf >> 27) | (uds_st << 5);
    }
    t247 = n9_6 ^ t229;
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n10_1 = (uds_st >> 5) | (uds_tf << 27);
    }
    t247 = ~(n10_7 | n4_3 | n10_1);
    { /* shifted field presentation (+5) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 10 & (word)1);
        const word uds_st = (t247 & (word)0x7ff) | (uds_tf & ~(word)0x7ff);
        n11_3 = (uds_bf >> 27) | (uds_st << 5);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n11_3 & (word)1);
        const word uds_tf = (word)0 - (n11_3 >> 15 & (word)1);
        const word uds_st = (n11_3 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n7_7 & (word)1);
        const word uds_tf = (word)0 - (n7_7 >> 15 & (word)1);
        const word uds_st = (n7_7 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t231 = (uds_st >> 5) | (uds_tf << 27);
    }
    t247 = t229 | t231 | n11_7;
    { /* shifted field presentation (+10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 14 & (word)1);
        const word uds_st = (t247 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        n12_1 = (uds_bf >> 22) | (uds_st << 10);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n1_4 & (word)1);
        const word uds_tf = (word)0 - (n1_4 >> 4 & (word)1);
        const word uds_st = (n1_4 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (uds_st >> 3) | (uds_tf << 29);
    }
    n7_6 = ~(n6_5 & t229);
    { /* shifted field presentation (+23) */
        const word uds_bf = (word)0 - (n7_6 & (word)1);
        const word uds_tf = (word)0 - (n7_6 >> 6 & (word)1);
        const word uds_st = (n7_6 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        t229 = (uds_bf >> 9) | (uds_st << 23);
    }
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n2_7 & (word)1);
        const word uds_tf = (word)0 - (n2_7 >> 4 & (word)1);
        const word uds_st = (n2_7 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t231 = (uds_bf >> 12) | (uds_st << 20);
    }
    n8_5 = ~(t229 | t231);
    t225 = (word)0 - (n8_5 >> 29 & 1);
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 14) | (uds_tf << 18);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n6_1 & (word)1);
        const word uds_tf = (word)0 - (n6_1 >> 8 & (word)1);
        const word uds_st = (n6_1 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t231 = (uds_st >> 2) | (uds_tf << 30);
    }
    t247 = t229 & t231 & n6_5;
    { /* shifted field presentation (+3) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 6 & (word)1);
        const word uds_st = (t247 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        n7_4 = (uds_bf >> 29) | (uds_st << 3);
    }
    n8_2 = ~(n7_4 & n7_9);
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t229 = (uds_st >> 13) | (uds_tf << 19);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 8 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t231 = (uds_st >> 1) | (uds_tf << 31);
    }
    t247 = n8_2 | t229 | n7_12 | t231;
    { /* shifted field presentation (+6) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 9 & (word)1);
        const word uds_st = (t247 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        n9_7 = (uds_bf >> 26) | (uds_st << 6);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n9_7 & (word)1);
        const word uds_tf = (word)0 - (n9_7 >> 15 & (word)1);
        const word uds_st = (n9_7 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_st >> 4) | (uds_tf << 28);
    }
    t247 = ~(t229 | n1_11);
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 11 & (word)1);
        const word uds_st = (t247 & (word)0xfff) | (uds_tf & ~(word)0xfff);
        n10_9 = (uds_bf >> 28) | (uds_st << 4);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n4_8 & (word)1);
        const word uds_tf = (word)0 - (n4_8 >> 13 & (word)1);
        const word uds_st = (n4_8 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_st >> 3) | (uds_tf << 29);
    }
    n10_3 = n9_7 | n9_6 | t229;
    n11_0 = n10_9 | n10_3;
    n12_6 = n11_0 & n11_3;
    t247 = ~(n9_3 | n9_7);
    { /* shifted field presentation (+12) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n10_2 = (uds_bf >> 20) | (uds_st << 12);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n10_2 & (word)1);
        const word uds_tf = (word)0 - (n10_2 >> 27 & (word)1);
        const word uds_st = (n10_2 & (word)0xfffffff) | (uds_tf & ~(word)0xfffffff);
        t229 = (uds_st >> 3) | (uds_tf << 29);
    }
    n11_9 = ~(t229 | n10_6);
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (pi4 & (word)1);
        const word uds_tf = (word)0 - (pi4 >> 17 & (word)1);
        const word uds_st = (pi4 & (word)0x3ffff) | (uds_tf & ~(word)0x3ffff);
        t229 = (uds_st >> 15) | (uds_tf << 17);
    }
    n8_0 = ~(n7_4 & t229);
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n8_0 & (word)1);
        const word uds_tf = (word)0 - (n8_0 >> 9 & (word)1);
        const word uds_st = (n8_0 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        t229 = (uds_bf >> 12) | (uds_st << 20);
    }
    t247 = ~(t229 ^ n8_5);
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 29 & (word)1);
        const word uds_st = (t247 & (word)0x3fffffff) | (uds_tf & ~(word)0x3fffffff);
        n9_4 = (uds_st >> 16) | (uds_tf << 16);
    }
    n10_4 = n9_4 | n9_2;
    { /* shifted field presentation (+10) */
        const word uds_bf = (word)0 - (n10_4 & (word)1);
        const word uds_tf = (word)0 - (n10_4 >> 13 & (word)1);
        const word uds_st = (n10_4 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_bf >> 22) | (uds_st << 10);
    }
    t247 = ~(n11_9 ^ t229);
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n12_7 = (uds_st >> 10) | (uds_tf << 22);
    }
    n13_6 = n12_7;
    n14_2 = n13_6 & n8_10;
    n15_3 = n14_2 | n6_5;
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (n13_2 & (word)1);
        const word uds_tf = (word)0 - (n13_2 >> 30 & (word)1);
        const word uds_st = (n13_2 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        t229 = (uds_bf >> 28) | (uds_st << 4);
        t230 = (uds_st >> 28) | (uds_tf << 4);
    }
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n13_6 & (word)1);
        const word uds_tf = (word)0 - (n13_6 >> 14 & (word)1);
        const word uds_st = (n13_6 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t231 = (uds_bf >> 12) | (uds_st << 20);
        t232 = (uds_st >> 12) | (uds_tf << 20);
    }
    n14_0_w0 = ~(t229 | t231);
    n14_0_w1 = ~(t230 | t232);
    t247 = ~(n14_0_w0 | n3_6);
    t248 = ~(n14_0_w1 | t220);
    { /* shifted field presentation (+2) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t248 >> 2 & (word)1);
        const word uds_st = (t248 & (word)0x7) | (uds_tf & ~(word)0x7);
        n15_5_w0 = (uds_bf >> 30) | (t247 << 2);
        n15_5_w1 = (t247 >> 30) | (uds_st << 2);
    }
    n16_5_w0 = ~(n15_5_w0 | n8_5);
    n16_5_w1 = ~(n15_5_w1 | t225);
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n15_3 & (word)1);
        const word uds_tf = (word)0 - (n15_3 >> 14 & (word)1);
        const word uds_st = (n15_3 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t229 = (uds_bf >> 12) | (uds_st << 20);
        t230 = (uds_st >> 12) | (uds_tf << 20);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n15_5_w0 & (word)1);
        const word uds_tf = (word)0 - (n15_5_w1 >> 4 & (word)1);
        const word uds_st = (n15_5_w1 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t231 = (n15_5_w0 >> 2) | (uds_st << 30);
        t232 = (uds_st >> 2) | (uds_tf << 30);
    }
    n16_1_w0 = ~(t229 & t231);
    n16_1_w1 = ~(t230 & t232);
    n17_2_w0 = ~(n16_1_w0 ^ n4_5);
    n17_2_w1 = ~(n16_1_w1 ^ t222);
    { /* shifted field presentation (-19) */
        const word uds_bf = (word)0 - (n15_5_w0 & (word)1);
        const word uds_tf = (word)0 - (n15_5_w1 >> 4 & (word)1);
        const word uds_st = (n15_5_w1 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (n15_5_w0 >> 19) | (uds_st << 13);
    }
    n16_0 = ~(t229 & n1_15);
    t247 = ~(n11_7 | n10_4);
    { /* shifted field presentation (+16) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 14 & (word)1);
        const word uds_st = (t247 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        n12_4 = (uds_bf >> 16) | (uds_st << 16);
    }
    n13_7 = n12_4 & n4_4;
    t247 = ~(n13_2 & n13_7);
    { /* shifted field presentation (+5) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 30 & (word)1);
        const word uds_st = (t247 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        n14_4_w0 = (uds_bf >> 27) | (uds_st << 5);
        n14_4_w1 = (uds_st >> 27) | (uds_tf << 5);
    }
    { /* shifted field presentation (-22) */
        const word uds_bf = (word)0 - (n14_4_w0 & (word)1);
        const word uds_tf = (word)0 - (n14_4_w1 >> 3 & (word)1);
        const word uds_st = (n14_4_w1 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (n14_4_w0 >> 22) | (uds_st << 10);
    }
    n16_6 = ~(n15_3 & t229);
    { /* shifted field presentation (-17) */
        const word uds_bf = (word)0 - (n14_4_w0 & (word)1);
        const word uds_tf = (word)0 - (n14_4_w1 >> 3 & (word)1);
        const word uds_st = (n14_4_w1 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (n14_4_w0 >> 17) | (uds_st << 15);
    }
    n15_7 = t229 ^ n9_4;
    n16_2 = ~n15_7;
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (n7_10 & (word)1);
        const word uds_tf = (word)0 - (n7_10 >> 24 & (word)1);
        const word uds_st = (n7_10 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_st >> 15) | (uds_tf << 17);
    }
    n17_9 = n16_2 & n3_0 & n3_1 & t229;
    n15_2_w0 = n14_4_w0 & n8_5;
    n15_2_w1 = n14_4_w1 & t225;
    { /* shifted field presentation (-21) */
        const word uds_bf = (word)0 - (n14_4_w0 & (word)1);
        const word uds_tf = (word)0 - (n14_4_w1 >> 3 & (word)1);
        const word uds_st = (n14_4_w1 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (n14_4_w0 >> 21) | (uds_st << 11);
    }
    n15_1 = ~(n14_2 | n4_3 | t229);
    { /* shifted field presentation (+21) */
        const word uds_bf = (word)0 - (n15_1 & (word)1);
        const word uds_tf = (word)0 - (n15_1 >> 14 & (word)1);
        const word uds_st = (n15_1 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t229 = (uds_bf >> 11) | (uds_st << 21);
        t230 = (uds_st >> 11) | (uds_tf << 21);
    }
    t247 = ~(t229 | n15_2_w0);
    t248 = ~(t230 | n15_2_w1);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t248 >> 3 & (word)1);
        const word uds_st = (t248 & (word)0xf) | (uds_tf & ~(word)0xf);
        n16_7_w0 = (t247 >> 1) | (uds_st << 31);
        n16_7_w1 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n16_7_w0 & (word)1);
        const word uds_tf = (word)0 - (n16_7_w1 >> 2 & (word)1);
        const word uds_st = (n16_7_w1 & (word)0x7) | (uds_tf & ~(word)0x7);
        t229 = (n16_7_w0 >> 16) | (uds_st << 16);
    }
    n17_7 = n16_2 | t229;
    n17_0_w0 = ~(n16_7_w0 & n5_0 & n5_7 & n2_1 & n16_1_w0 & n4_4);
    n17_0_w1 = ~(n16_7_w1 & t223 & t224 & t219 & n16_1_w1 & t221);
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (n10_4 & (word)1);
        const word uds_tf = (word)0 - (n10_4 >> 13 & (word)1);
        const word uds_st = (n10_4 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t229 = (uds_bf >> 21) | (uds_st << 11);
    }
    t247 = ~(t229 | n10_8);
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n11_6 = (uds_st >> 10) | (uds_tf << 22);
    }
    t247 = ~(n11_6 & n11_7 & pi8);
    { /* shifted field presentation (+16) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 14 & (word)1);
        const word uds_st = (t247 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        n12_10 = (uds_bf >> 16) | (uds_st << 16);
    }
    n13_3 = n12_2 & n12_10;
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (n10_2 & (word)1);
        const word uds_tf = (word)0 - (n10_2 >> 27 & (word)1);
        const word uds_st = (n10_2 & (word)0xfffffff) | (uds_tf & ~(word)0xfffffff);
        t229 = (uds_bf >> 28) | (uds_st << 4);
    }
    { /* shifted field presentation (+18) */
        const word uds_bf = (word)0 - (n10_4 & (word)1);
        const word uds_tf = (word)0 - (n10_4 >> 13 & (word)1);
        const word uds_st = (n10_4 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t231 = (uds_bf >> 14) | (uds_st << 18);
    }
    n11_2 = t229 ^ t231;
    t228 = (word)0 - (n11_2 >> 31 & 1);
    n12_8 = ~(n11_2 & n3_7);
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n11_6 & (word)1);
        const word uds_tf = (word)0 - (n11_6 >> 14 & (word)1);
        const word uds_st = (n11_6 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t229 = (uds_bf >> 15) | (uds_st << 17);
    }
    t247 = ~(t229 ^ n11_2);
    { /* shifted field presentation (+2) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 31 & (word)1);
        const word uds_st = t247;
        n12_3_w0 = (uds_bf >> 30) | (uds_st << 2);
        n12_3_w1 = (uds_st >> 30) | (uds_tf << 2);
    }
    { /* shifted field presentation (+9) */
        const word uds_bf = (word)0 - (n12_1 & (word)1);
        const word uds_tf = (word)0 - (n12_1 >> 24 & (word)1);
        const word uds_st = (n12_1 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_bf >> 23) | (uds_st << 9);
        t230 = (uds_st >> 23) | (uds_tf << 9);
    }
    t247 = ~(n12_3_w0 | t229 | n8_5);
    t248 = ~(n12_3_w1 | t230 | t225);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t248 >> 1 & (word)1);
        const word uds_st = (t248 & (word)0x3) | (uds_tf & ~(word)0x3);
        n13_1 = (t247 >> 3) | (uds_st << 29);
    }
    n14_3 = ~(n13_1 & n13_3);
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n6_6 & (word)1);
        const word uds_tf = (word)0 - (n6_6 >> 21 & (word)1);
        const word uds_st = (n6_6 & (word)0x3fffff) | (uds_tf & ~(word)0x3fffff);
        t229 = (uds_st >> 14) | (uds_tf << 18);
    }
    n9_0 = n8_0 & t229;
    t247 = n9_0 ^ n6_5;
    { /* shifted field presentation (+2) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 9 & (word)1);
        const word uds_st = (t247 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        n10_0 = (uds_bf >> 30) | (uds_st << 2);
    }
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (n14_3 & (word)1);
        const word uds_tf = (word)0 - (n14_3 >> 30 & (word)1);
        const word uds_st = (n14_3 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        t229 = (uds_bf >> 28) | (uds_st << 4);
        t230 = (uds_st >> 28) | (uds_tf << 4);
    }
    { /* shifted field presentation (+19) */
        const word uds_bf = (word)0 - (n10_0 & (word)1);
        const word uds_tf = (word)0 - (n10_0 >> 11 & (word)1);
        const word uds_st = (n10_0 & (word)0xfff) | (uds_tf & ~(word)0xfff);
        t231 = (uds_bf >> 13) | (uds_st << 19);
        t232 = (uds_st >> 13) | (uds_tf << 19);
    }
    n15_4_w0 = t229 & n14_0_w0 & t231;
    n15_4_w1 = t230 & n14_0_w1 & t232;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n10_9 & (word)1);
        const word uds_tf = (word)0 - (n10_9 >> 15 & (word)1);
        const word uds_st = (n10_9 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_st >> 4) | (uds_tf << 28);
    }
    t247 = ~(n10_0 & n7_5 & t229 & n7_8);
    { /* shifted field presentation (+13) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 11 & (word)1);
        const word uds_st = (t247 & (word)0xfff) | (uds_tf & ~(word)0xfff);
        n11_4 = (uds_bf >> 19) | (uds_st << 13);
    }
    n12_9 = n11_4 & n11_9;
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 8 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t229 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 20 & (word)1);
        const word uds_st = (n6_4 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t231 = (uds_st >> 14) | (uds_tf << 18);
    }
    n7_3 = ~(n6_5 & n5_6 & t229 & t231);
    n8_3 = ~n7_3;
    { /* shifted field presentation (+15) */
        const word uds_bf = (word)0 - (n9_0 & (word)1);
        const word uds_tf = (word)0 - (n9_0 >> 9 & (word)1);
        const word uds_st = (n9_0 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        t229 = (uds_bf >> 17) | (uds_st << 15);
    }
    { /* shifted field presentation (+13) */
        const word uds_bf = (word)0 - (n6_1 & (word)1);
        const word uds_tf = (word)0 - (n6_1 >> 8 & (word)1);
        const word uds_st = (n6_1 & (word)0x1ff) | (uds_tf & ~(word)0x1ff);
        t231 = (uds_bf >> 19) | (uds_st << 13);
    }
    { /* shifted field presentation (+15) */
        const word uds_bf = (word)0 - (n6_3 & (word)1);
        const word uds_tf = (word)0 - (n6_3 >> 6 & (word)1);
        const word uds_st = (n6_3 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        t233 = (uds_bf >> 17) | (uds_st << 15);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n1_5 & (word)1);
        const word uds_tf = (word)0 - (n1_5 >> 23 & (word)1);
        const word uds_st = (n1_5 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        t235 = (uds_st >> 7) | (uds_tf << 25);
    }
    { /* shifted field presentation (+6) */
        const word uds_bf = (word)0 - (n6_2 & (word)1);
        const word uds_tf = (word)0 - (n6_2 >> 15 & (word)1);
        const word uds_st = (n6_2 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t237 = (uds_bf >> 26) | (uds_st << 6);
    }
    { /* shifted field presentation (+14) */
        const word uds_bf = (word)0 - (n4_7 & (word)1);
        const word uds_tf = (word)0 - (n4_7 >> 5 & (word)1);
        const word uds_st = (n4_7 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        t239 = (uds_bf >> 18) | (uds_st << 14);
    }
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n8_3 & (word)1);
        const word uds_tf = (word)0 - (n8_3 >> 6 & (word)1);
        const word uds_st = (n8_3 & (word)0x7f) | (uds_tf & ~(word)0x7f);
        t241 = (uds_bf >> 15) | (uds_st << 17);
    }
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (n9_2 & (word)1);
        const word uds_tf = (word)0 - (n9_2 >> 13 & (word)1);
        const word uds_st = (n9_2 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t243 = (uds_bf >> 21) | (uds_st << 11);
    }
    t247 = ~(t229 & t231 & n9_5 & t233 & t235 & t237 & t239 & t241 & t243);
    { /* shifted field presentation (+6) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n10_5 = (uds_bf >> 26) | (uds_st << 6);
    }
    t226 = (word)0 - (n10_5 >> 30 & 1);
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (n10_5 & (word)1);
        const word uds_tf = (word)0 - (n10_5 >> 30 & (word)1);
        const word uds_st = (n10_5 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        t229 = (uds_st >> 6) | (uds_tf << 26);
    }
    { /* shifted field presentation (+11) */
        const word uds_bf = (word)0 - (pi15 & (word)1);
        const word uds_tf = (word)0 - (pi15 >> 3 & (word)1);
        const word uds_st = (pi15 & (word)0xf) | (uds_tf & ~(word)0xf);
        t231 = (uds_bf >> 21) | (uds_st << 11);
    }
    t247 = ~(t229 | n10_6 | t231);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 24 & (word)1);
        const word uds_st = (t247 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        n11_5 = (uds_st >> 9) | (uds_tf << 23);
    }
    { /* shifted field presentation (-18) */
        const word uds_bf = (word)0 - (n10_5 & (word)1);
        const word uds_tf = (word)0 - (n10_5 >> 30 & (word)1);
        const word uds_st = (n10_5 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        t229 = (uds_st >> 18) | (uds_tf << 14);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 20 & (word)1);
        const word uds_st = (n2_1 & (word)0x1fffff) | (uds_tf & ~(word)0x1fffff);
        t231 = (uds_st >> 16) | (uds_tf << 16);
    }
    t247 = t229 & n1_8 & t231;
    { /* shifted field presentation (+19) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 12 & (word)1);
        const word uds_st = (t247 & (word)0x1fff) | (uds_tf & ~(word)0x1fff);
        n11_1 = (uds_bf >> 13) | (uds_st << 19);
    }
    t227 = (word)0 - (n11_1 >> 31 & 1);
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n11_1 & (word)1);
        const word uds_tf = (word)0 - (n11_1 >> 31 & (word)1);
        const word uds_st = n11_1;
        t229 = (uds_st >> 16) | (uds_tf << 16);
    }
    n12_5 = t229 | n11_5;
    t247 = ~(n12_6 & n12_5);
    { /* shifted field presentation (+18) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n13_5_w0 = (uds_bf >> 14) | (uds_st << 18);
        n13_5_w1 = (uds_st >> 14) | (uds_tf << 18);
    }
    t247 = ~(n15_2_w0 & n13_5_w0 & n10_5 & n3_6);
    t248 = ~(n15_2_w1 & n13_5_w1 & t226 & t220);
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t248 >> 3 & (word)1);
        const word uds_st = (t248 & (word)0xf) | (uds_tf & ~(word)0xf);
        n16_8_w0 = (uds_bf >> 31) | (t247 << 1);
        n16_8_w1 = (t247 >> 31) | (uds_st << 1);
    }
    { /* shifted field presentation (-19) */
        const word uds_bf = (word)0 - (n16_8_w0 & (word)1);
        const word uds_tf = (word)0 - (n16_8_w1 >> 4 & (word)1);
        const word uds_st = (n16_8_w1 & (word)0x1f) | (uds_tf & ~(word)0x1f);
        t229 = (n16_8_w0 >> 19) | (uds_st << 13);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n10_9 & (word)1);
        const word uds_tf = (word)0 - (n10_9 >> 15 & (word)1);
        const word uds_st = (n10_9 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t231 = (uds_st >> 4) | (uds_tf << 28);
    }
    n17_6 = ~(t229 | n8_7 | t231);
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n11_1 & (word)1);
        const word uds_tf = (word)0 - (n11_1 >> 31 & (word)1);
        const word uds_st = n11_1;
        t229 = (uds_st >> 13) | (uds_tf << 19);
    }
    t247 = t229 ^ n8_4;
    { /* shifted field presentation (+6) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 18 & (word)1);
        const word uds_st = (t247 & (word)0x7ffff) | (uds_tf & ~(word)0x7ffff);
        n12_0 = (uds_bf >> 26) | (uds_st << 6);
    }
    n13_4 = ~(n12_1 & n12_0 & n12_9 & pi10);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (n12_0 & (word)1);
        const word uds_tf = (word)0 - (n12_0 >> 24 & (word)1);
        const word uds_st = (n12_0 & (word)0x1ffffff) | (uds_tf & ~(word)0x1ffffff);
        t229 = (uds_st >> 9) | (uds_tf << 23);
    }
    t247 = ~(n12_6 ^ n1_10 ^ t229);
    { /* shifted field presentation (+15) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 15 & (word)1);
        const word uds_st = (t247 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        n13_0 = (uds_bf >> 17) | (uds_st << 15);
    }
    t247 = ~(n13_0 | n10_2 | n13_1 | n2_2);
    { /* shifted field presentation (+4) */
        const word uds_bf = (word)0 - (t247 & (word)1);
        const word uds_tf = (word)0 - (t247 >> 30 & (word)1);
        const word uds_st = (t247 & (word)0x7fffffff) | (uds_tf & ~(word)0x7fffffff);
        n14_1_w0 = (uds_bf >> 28) | (uds_st << 4);
        n14_1_w1 = (uds_st >> 28) | (uds_tf << 4);
    }
    n15_6_w0 = ~(n14_0_w0 | n14_1_w0 | n11_1);
    n15_6_w1 = ~(n14_0_w1 | n14_1_w1 | t227);
    n16_4_w0 = ~(n15_4_w0 & n15_6_w0);
    n16_4_w1 = ~(n15_4_w1 & n15_6_w1);
    n17_10_w0 = n16_4_w0 & n4_5;
    n17_10_w1 = n16_4_w1 & t222;
    { /* shifted field presentation (+15) */
        const word uds_bf = (word)0 - (pi15 & (word)1);
        const word uds_tf = (word)0 - (pi15 >> 3 & (word)1);
        const word uds_st = (pi15 & (word)0xf) | (uds_tf & ~(word)0xf);
        t229 = (uds_bf >> 17) | (uds_st << 15);
        t230 = (uds_st >> 17) | (uds_tf << 15);
    }
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n16_0 & (word)1);
        const word uds_tf = (word)0 - (n16_0 >> 17 & (word)1);
        const word uds_st = (n16_0 & (word)0x3ffff) | (uds_tf & ~(word)0x3ffff);
        t231 = (uds_bf >> 15) | (uds_st << 17);
        t232 = (uds_st >> 15) | (uds_tf << 17);
    }
    { /* shifted field presentation (+20) */
        const word uds_bf = (word)0 - (n16_6 & (word)1);
        const word uds_tf = (word)0 - (n16_6 >> 14 & (word)1);
        const word uds_st = (n16_6 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t233 = (uds_bf >> 12) | (uds_st << 20);
        t234 = (uds_st >> 12) | (uds_tf << 20);
    }
    n17_8_w0 = n16_4_w0 & t229 & t231 & t233;
    n17_8_w1 = n16_4_w1 & t230 & t232 & t234;
    { /* shifted field presentation (+17) */
        const word uds_bf = (word)0 - (n4_7 & (word)1);
        const word uds_tf = (word)0 - (n4_7 >> 5 & (word)1);
        const word uds_st = (n4_7 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        t229 = (uds_bf >> 15) | (uds_st << 17);
        t230 = (uds_st >> 15) | (uds_tf << 17);
    }
    n17_5_w0 = n16_4_w0 ^ t229;
    n17_5_w1 = n16_4_w1 ^ t230;
    { /* shifted field presentation (+14) */
        const word uds_bf = (word)0 - (n11_0 & (word)1);
        const word uds_tf = (word)0 - (n11_0 >> 15 & (word)1);
        const word uds_st = (n11_0 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_bf >> 18) | (uds_st << 14);
        t230 = (uds_st >> 18) | (uds_tf << 14);
    }
    n17_3_w0 = n16_7_w0 | n16_4_w0 | t229;
    n17_3_w1 = n16_7_w1 | n16_4_w1 | t230;
    { /* shifted field presentation (-19) */
        const word uds_bf = (word)0 - (n14_1_w0 & (word)1);
        const word uds_tf = (word)0 - (n14_1_w1 >> 2 & (word)1);
        const word uds_st = (n14_1_w1 & (word)0x7) | (uds_tf & ~(word)0x7);
        t229 = (n14_1_w0 >> 19) | (uds_st << 13);
    }
    n15_0 = t229 | n5_1;
    { /* shifted field presentation (+21) */
        const word uds_bf = (word)0 - (n15_0 & (word)1);
        const word uds_tf = (word)0 - (n15_0 >> 15 & (word)1);
        const word uds_st = (n15_0 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t229 = (uds_bf >> 11) | (uds_st << 21);
        t230 = (uds_st >> 11) | (uds_tf << 21);
    }
    n16_3_w0 = t229;
    n16_3_w1 = t230;
    n17_4_w0 = n16_3_w0 | n11_2;
    n17_4_w1 = n16_3_w1 | t228;
    n17_1_w0 = ~(n16_8_w0 | n16_5_w0 | n16_3_w0);
    n17_1_w1 = ~(n16_8_w1 | n16_5_w1 | n16_3_w1);
}
