/* parallel-technique unit-delay simulation of `c432` (path-tracing+trimming) */
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
static word n12_3 = ~(word)0;
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
static word n13_5 = ~(word)0;
static word n13_6 = ~(word)0;
static word n13_7 = 0;
static word n14_0 = 0;
static word n14_1 = ~(word)0;
static word n14_2 = 0;
static word n14_3 = ~(word)0;
static word n14_4 = ~(word)0;
static word n15_0 = ~(word)0;
static word n15_1 = 0;
static word n15_2 = 0;
static word n15_3 = 0;
static word n15_4 = 0;
static word n15_5 = ~(word)0;
static word n15_6 = 0;
static word n15_7 = ~(word)0;
static word n16_0 = 0;
static word n16_1 = ~(word)0;
static word n16_2 = 0;
static word n16_3 = ~(word)0;
static word n16_4 = ~(word)0;
static word n16_5 = 0;
static word n16_6 = ~(word)0;
static word n16_7 = ~(word)0;
static word n16_8 = ~(word)0;
static word n17_0 = ~(word)0;
static word n17_1 = 0;
static word n17_2 = 0;
static word n17_3 = ~(word)0;
static word n17_4 = ~(word)0;
static word n17_5 = 0;
static word n17_6 = 0;
static word n17_7 = ~(word)0;
static word n17_8 = 0;
static word n17_9 = 0;
static word n17_10 = 0;
static word t196 = 0;
static word t197 = 0;
static word t198 = 0;
static word t199 = 0;
static word t200 = 0;
static word t201 = 0;
static word t202 = 0;
static word t203 = 0;
static word t204 = 0;
static word t205 = 0;

void simulate_one_vector(const word *pi)
{
    { /* input 0: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (pi0 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[0];
        pi0 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 1: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi1 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[1];
        pi1 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 2: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (pi2 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[2];
        pi2 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 3: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi3 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[3];
        pi3 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 4: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi4 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[4];
        pi4 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 5: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi5 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[5];
        pi5 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 6: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi6 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[6];
        pi6 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 7: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi7 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[7];
        pi7 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 8: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (pi8 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[8];
        pi8 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 9: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi9 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[9];
        pi9 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 10: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi10 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[10];
        pi10 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 11: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi11 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[11];
        pi11 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 12: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (pi12 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[12];
        pi12 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 13: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (pi13 >> 12 & (word)1);
        const word uds_n = (word)0 - pi[13];
        pi13 = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 14: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi14 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[14];
        pi14 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 15: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi15 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[15];
        pi15 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 16: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi16 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[16];
        pi16 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 17: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi17 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[17];
        pi17 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 18: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi18 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[18];
        pi18 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 19: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi19 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[19];
        pi19 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 20: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi20 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[20];
        pi20 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 21: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi21 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[21];
        pi21 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 22: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi22 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[22];
        pi22 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 23: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi23 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[23];
        pi23 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 24: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi24 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[24];
        pi24 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 25: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi25 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[25];
        pi25 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 26: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi26 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[26];
        pi26 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 27: 13 previous-value bit(s) */
        const word uds_p = (word)0 - (pi27 >> 13 & (word)1);
        const word uds_n = (word)0 - pi[27];
        pi27 = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 28: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi28 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[28];
        pi28 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 29: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi29 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[29];
        pi29 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 30: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi30 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[30];
        pi30 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 31: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi31 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[31];
        pi31 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 32: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (pi32 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[32];
        pi32 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 33: 8 previous-value bit(s) */
        const word uds_p = (word)0 - (pi33 >> 8 & (word)1);
        const word uds_n = (word)0 - pi[33];
        pi33 = (uds_p & (word)0xff) | (uds_n & ~(word)0xff);
    }
    { /* input 34: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi34 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[34];
        pi34 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 35: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (pi35 >> 16 & (word)1);
        const word uds_n = (word)0 - pi[35];
        pi35 = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    n1_11 = pi15 & pi29 & pi1;
    n1_3 = pi2;
    n1_15 = ~(pi7 & pi19 & pi16 & pi3 & pi15);
    n2_1 = ~(n1_15 & n1_11);
    n1_2 = pi23 | pi4;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (pi5 & (word)1);
        const word uds_tf = (word)0 - (pi5 >> 16 & (word)1);
        const word uds_st = (pi5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n1_14 = ~(t196 | pi32);
    n1_4 = ~(pi20 & pi5 & pi24);
    n1_1 = ~(pi26 & pi6 & pi17);
    n1_13 = pi7 & pi15 & pi21 & pi34;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (pi15 & (word)1);
        const word uds_tf = (word)0 - (pi15 >> 16 & (word)1);
        const word uds_st = (pi15 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n1_8 = t196 & pi12 & pi8;
    n1_9 = ~(pi28 & pi9 & pi24);
    n1_5 = pi20 | pi26 | pi10 | pi35;
    n2_0 = n1_5 & pi0;
    n1_12 = pi35 & pi18 & pi11;
    n2_5 = ~(n1_12 | n1_1);
    n3_7 = n2_0 | n2_5;
    n3_6 = ~(n2_1 | n1_3 | n2_5);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n2_5 & (word)1);
        const word uds_tf = (word)0 - (n2_5 >> 16 & (word)1);
        const word uds_st = (n2_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n3_1 = t196 ^ pi27;
    n1_0 = pi14 & pi25 & pi26;
    n2_4 = ~(n1_0 & n1_9 & n1_4 & n1_4);
    n2_2 = n1_2 | n1_13 | n1_0;
    n1_6 = pi30 | pi17;
    n2_6 = ~(n1_1 ^ n1_6);
    n3_2 = ~(n2_6 | n2_4);
    n4_4 = n3_6 | n3_7 | n3_7 | n3_2;
    n1_7 = pi20 & pi18;
    n2_3 = n1_7 & n1_12;
    n3_5 = n2_3;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n2_6 & (word)1);
        const word uds_tf = (word)0 - (n2_6 >> 16 & (word)1);
        const word uds_st = (n2_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n2_5 & (word)1);
        const word uds_tf = (word)0 - (n2_5 >> 16 & (word)1);
        const word uds_st = (n2_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 1) | (uds_tf << 31);
    }
    n4_0 = n3_5 & t196 & t197;
    n3_4 = n2_0 | n2_1 | n1_14 | n1_8 | n2_2 | n2_3;
    n4_8 = n3_4;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n3_5 & (word)1);
        const word uds_tf = (word)0 - (n3_5 >> 16 & (word)1);
        const word uds_st = (n3_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n5_7 = n4_8 & t196;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n1_9 & (word)1);
        const word uds_tf = (word)0 - (n1_9 >> 16 & (word)1);
        const word uds_st = (n1_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n6_6 = ~(n5_7 & t196);
    n7_11 = n6_6 | n6_6;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n3_4 & (word)1);
        const word uds_tf = (word)0 - (n3_4 >> 16 & (word)1);
        const word uds_st = (n3_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n4_5 = n3_1 & t196;
    n1_10 = pi22 & pi31;
    n2_7 = ~(n1_4 & n1_10);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n3_1 & (word)1);
        const word uds_tf = (word)0 - (n3_1 >> 15 & (word)1);
        const word uds_st = (n3_1 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n3_5 & (word)1);
        const word uds_tf = (word)0 - (n3_5 >> 16 & (word)1);
        const word uds_st = (n3_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n2_7 & (word)1);
        const word uds_tf = (word)0 - (n2_7 >> 16 & (word)1);
        const word uds_st = (n2_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 3) | (uds_tf << 29);
    }
    n4_3 = ~(t196 | t197 | t198);
    n3_3 = n2_7 & n2_3;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n1_8 & (word)1);
        const word uds_tf = (word)0 - (n1_8 >> 15 & (word)1);
        const word uds_st = (n1_8 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n4_1 = ~(n3_3 ^ t196);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n1_11 & (word)1);
        const word uds_tf = (word)0 - (n1_11 >> 16 & (word)1);
        const word uds_st = (n1_11 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n5_5 = ~(n4_1 | t196);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n1_9 & (word)1);
        const word uds_tf = (word)0 - (n1_9 >> 16 & (word)1);
        const word uds_st = (n1_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n6_1 = n5_5 & t196;
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n1_1 & (word)1);
        const word uds_tf = (word)0 - (n1_1 >> 16 & (word)1);
        const word uds_st = (n1_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n5_2 = n4_1 & t196;
    n6_2 = n5_2 | n5_7;
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n4_8 & (word)1);
        const word uds_tf = (word)0 - (n4_8 >> 16 & (word)1);
        const word uds_st = (n4_8 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    n7_2 = ~(n6_2 & t196);
    n5_0 = ~n4_1;
    n3_0 = ~(n2_5 & n2_7);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n3_0 & (word)1);
        const word uds_tf = (word)0 - (n3_0 >> 16 & (word)1);
        const word uds_st = (n3_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n2_7 & (word)1);
        const word uds_tf = (word)0 - (n2_7 >> 16 & (word)1);
        const word uds_st = (n2_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    n4_7 = t196 | pi13 | t197;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n4_4 & (word)1);
        const word uds_tf = (word)0 - (n4_4 >> 16 & (word)1);
        const word uds_st = (n4_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n5_6 = t196 & n4_5 & n4_7;
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n1_1 & (word)1);
        const word uds_tf = (word)0 - (n1_1 >> 16 & (word)1);
        const word uds_st = (n1_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    n4_6 = ~(n3_0 & t196);
    n5_4 = n4_6 & n4_8;
    n6_0 = n5_5 ^ n5_4;
    n5_1 = ~(n4_6 | n4_4);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n2_4 & (word)1);
        const word uds_tf = (word)0 - (n2_4 >> 16 & (word)1);
        const word uds_st = (n2_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n6_4 = ~(n5_1 & t196);
    n7_10 = n6_0 | n6_4;
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (n1_6 & (word)1);
        const word uds_tf = (word)0 - (n1_6 >> 16 & (word)1);
        const word uds_st = (n1_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 6) | (uds_tf << 26);
    }
    n8_7 = ~(n7_10 | t196);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n2_2 & (word)1);
        const word uds_tf = (word)0 - (n2_2 >> 16 & (word)1);
        const word uds_st = (n2_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (pi4 & (word)1);
        const word uds_tf = (word)0 - (pi4 >> 16 & (word)1);
        const word uds_st = (pi4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 7) | (uds_tf << 25);
    }
    n8_1 = ~(n7_10 ^ t196 ^ t197);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n5_4 & (word)1);
        const word uds_tf = (word)0 - (n5_4 >> 16 & (word)1);
        const word uds_st = (n5_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n9_5 = n8_1 | t196;
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n6_6 & (word)1);
        const word uds_tf = (word)0 - (n6_6 >> 16 & (word)1);
        const word uds_st = (n6_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n10_8 = n9_5 | t196;
    n7_9 = ~(n6_1 & n6_4);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n7_9 & (word)1);
        const word uds_tf = (word)0 - (n7_9 >> 16 & (word)1);
        const word uds_st = (n7_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n8_6 = t196 ^ pi33;
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (pi9 & (word)1);
        const word uds_tf = (word)0 - (pi9 >> 16 & (word)1);
        const word uds_st = (pi9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 6) | (uds_tf << 26);
    }
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n1_11 & (word)1);
        const word uds_tf = (word)0 - (n1_11 >> 16 & (word)1);
        const word uds_st = (n1_11 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 5) | (uds_tf << 27);
    }
    n7_8 = n6_4 & t196 & t197;
    n7_0 = ~(n6_1 & n6_6 & n6_2 & n6_4);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 16 & (word)1);
        const word uds_st = (n2_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 16 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 1) | (uds_tf << 31);
    }
    n8_8 = ~(n7_0 & t196 & t197);
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 16 & (word)1);
        const word uds_st = (n2_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 6) | (uds_tf << 26);
    }
    n9_2 = ~(n8_8 & n8_7 & t196);
    n6_3 = ~(n5_1 | n5_0);
    n7_1 = n6_3 & n4_3;
    n8_10 = n7_11 & n7_1;
    n9_3 = ~(n8_10 ^ n8_1);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 16 & (word)1);
        const word uds_st = (n2_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n4_2 = ~(n3_5 | n3_0 | t196);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 16 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n4_2 & (word)1);
        const word uds_tf = (word)0 - (n4_2 >> 16 & (word)1);
        const word uds_st = (n4_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 3) | (uds_tf << 29);
    }
    n7_12 = ~(t196 ^ t197);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n4_2 & (word)1);
        const word uds_tf = (word)0 - (n4_2 >> 16 & (word)1);
        const word uds_st = (n4_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    n7_5 = n6_1 | t196;
    n8_9 = n7_10 & n7_8 & n7_5;
    n5_3 = n4_0 & n4_2;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n1_2 & (word)1);
        const word uds_tf = (word)0 - (n1_2 >> 16 & (word)1);
        const word uds_st = (n1_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n6_5 = n5_3 & t196;
    n7_7 = ~(n6_5 | n5_6);
    n8_4 = ~(n7_2 | n7_7);
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (pi29 & (word)1);
        const word uds_tf = (word)0 - (pi29 >> 16 & (word)1);
        const word uds_st = (pi29 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 8) | (uds_tf << 24);
    }
    n9_6 = n8_4 & t196;
    n10_6 = ~(n9_2 & n9_6);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 16 & (word)1);
        const word uds_st = (n6_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n11_8 = n10_8 ^ t196 ^ n10_6;
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (pi18 & (word)1);
        const word uds_tf = (word)0 - (pi18 >> 16 & (word)1);
        const word uds_st = (pi18 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 11) | (uds_tf << 21);
    }
    n12_2 = n11_8 ^ t196;
    n13_2 = n12_2;
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (pi23 & (word)1);
        const word uds_tf = (word)0 - (pi23 >> 16 & (word)1);
        const word uds_st = (pi23 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 10) | (uds_tf << 22);
    }
    n11_7 = n10_6 ^ t196;
    n9_1 = n8_4 | n8_9;
    n10_7 = n9_1 & n8_6;
    n10_1 = n9_6 ^ n9_1;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n4_3 & (word)1);
        const word uds_tf = (word)0 - (n4_3 >> 14 & (word)1);
        const word uds_st = (n4_3 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n11_3 = ~(n10_7 | t196 | n10_1);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n7_7 & (word)1);
        const word uds_tf = (word)0 - (n7_7 >> 16 & (word)1);
        const word uds_st = (n7_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n12_1 = n11_3 | t196 | n11_7;
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n1_4 & (word)1);
        const word uds_tf = (word)0 - (n1_4 >> 16 & (word)1);
        const word uds_st = (n1_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    n7_6 = ~(n6_5 & t196);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n2_7 & (word)1);
        const word uds_tf = (word)0 - (n2_7 >> 16 & (word)1);
        const word uds_st = (n2_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    n8_5 = ~(n7_6 | t196);
    n7_4 = n6_4 & n6_1 & n6_5;
    n8_2 = ~(n7_4 & n7_9);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 16 & (word)1);
        const word uds_st = (n6_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 16 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    n9_7 = n8_2 | t196 | n7_12 | t197;
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n1_11 & (word)1);
        const word uds_tf = (word)0 - (n1_11 >> 16 & (word)1);
        const word uds_st = (n1_11 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 8) | (uds_tf << 24);
    }
    n10_9 = ~(n9_7 | t196);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n4_8 & (word)1);
        const word uds_tf = (word)0 - (n4_8 >> 16 & (word)1);
        const word uds_st = (n4_8 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    n10_3 = n9_7 | n9_6 | t196;
    n11_0 = n10_9 | n10_3;
    n12_6 = n11_0 & n11_3;
    n10_2 = ~(n9_3 | n9_7);
    n11_9 = ~(n10_2 | n10_6);
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (pi4 & (word)1);
        const word uds_tf = (word)0 - (pi4 >> 16 & (word)1);
        const word uds_st = (pi4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 7) | (uds_tf << 25);
    }
    n8_0 = ~(n7_4 & t196);
    n9_4 = ~(n8_0 ^ n8_5);
    n10_4 = n9_4 | n9_2;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n10_4 & (word)1);
        const word uds_tf = (word)0 - (n10_4 >> 16 & (word)1);
        const word uds_st = (n10_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n12_7 = ~(n11_9 ^ t196);
    n13_6 = n12_7;
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (n8_10 & (word)1);
        const word uds_tf = (word)0 - (n8_10 >> 16 & (word)1);
        const word uds_st = (n8_10 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 5) | (uds_tf << 27);
    }
    n14_2 = n13_6 & t196;
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n6_5 & (word)1);
        const word uds_tf = (word)0 - (n6_5 >> 16 & (word)1);
        const word uds_st = (n6_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 8) | (uds_tf << 24);
    }
    n15_3 = n14_2 | t196;
    n14_0 = ~(n13_2 | n13_6);
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (n3_6 & (word)1);
        const word uds_tf = (word)0 - (n3_6 >> 16 & (word)1);
        const word uds_st = (n3_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 11) | (uds_tf << 21);
    }
    n15_5 = ~(n14_0 | t196);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n15_5 & (word)1);
        const word uds_tf = (word)0 - (n15_5 >> 16 & (word)1);
        const word uds_st = (n15_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (n8_5 & (word)1);
        const word uds_tf = (word)0 - (n8_5 >> 16 & (word)1);
        const word uds_st = (n8_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 10) | (uds_tf << 22);
    }
    n16_5 = ~(t196 | t197);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n15_3 & (word)1);
        const word uds_tf = (word)0 - (n15_3 >> 16 & (word)1);
        const word uds_st = (n15_3 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n15_5 & (word)1);
        const word uds_tf = (word)0 - (n15_5 >> 16 & (word)1);
        const word uds_st = (n15_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    n16_1 = ~(t196 & t197);
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n4_5 & (word)1);
        const word uds_tf = (word)0 - (n4_5 >> 15 & (word)1);
        const word uds_st = (n4_5 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 13) | (uds_tf << 19);
    }
    n17_2 = ~(n16_1 ^ t196);
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n1_15 & (word)1);
        const word uds_tf = (word)0 - (n1_15 >> 16 & (word)1);
        const word uds_st = (n1_15 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 14) | (uds_tf << 18);
    }
    n16_0 = ~(n15_5 & t196);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n11_7 & (word)1);
        const word uds_tf = (word)0 - (n11_7 >> 16 & (word)1);
        const word uds_st = (n11_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n10_4 & (word)1);
        const word uds_tf = (word)0 - (n10_4 >> 16 & (word)1);
        const word uds_st = (n10_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    n12_4 = ~(t196 | t197);
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (n4_4 & (word)1);
        const word uds_tf = (word)0 - (n4_4 >> 16 & (word)1);
        const word uds_st = (n4_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 9) | (uds_tf << 23);
    }
    n13_7 = n12_4 & t196;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n13_2 & (word)1);
        const word uds_tf = (word)0 - (n13_2 >> 16 & (word)1);
        const word uds_st = (n13_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n14_4 = ~(t196 & n13_7);
    n16_6 = ~(n15_3 & n14_4);
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (n9_4 & (word)1);
        const word uds_tf = (word)0 - (n9_4 >> 16 & (word)1);
        const word uds_st = (n9_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 6) | (uds_tf << 26);
    }
    n15_7 = n14_4 ^ t196;
    n16_2 = ~n15_7;
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n3_0 & (word)1);
        const word uds_tf = (word)0 - (n3_0 >> 16 & (word)1);
        const word uds_st = (n3_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 14) | (uds_tf << 18);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n3_1 & (word)1);
        const word uds_tf = (word)0 - (n3_1 >> 15 & (word)1);
        const word uds_st = (n3_1 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t197 = (uds_st >> 13) | (uds_tf << 19);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (n7_10 & (word)1);
        const word uds_tf = (word)0 - (n7_10 >> 16 & (word)1);
        const word uds_st = (n7_10 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 10) | (uds_tf << 22);
    }
    n17_9 = n16_2 & t196 & t197 & t198;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n14_4 & (word)1);
        const word uds_tf = (word)0 - (n14_4 >> 15 & (word)1);
        const word uds_st = (n14_4 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n8_5 & (word)1);
        const word uds_tf = (word)0 - (n8_5 >> 16 & (word)1);
        const word uds_st = (n8_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 8) | (uds_tf << 24);
    }
    n15_2 = t196 & t197;
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n14_2 & (word)1);
        const word uds_tf = (word)0 - (n14_2 >> 16 & (word)1);
        const word uds_st = (n14_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (n4_3 & (word)1);
        const word uds_tf = (word)0 - (n4_3 >> 14 & (word)1);
        const word uds_st = (n4_3 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t197 = (uds_st >> 10) | (uds_tf << 22);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n14_4 & (word)1);
        const word uds_tf = (word)0 - (n14_4 >> 15 & (word)1);
        const word uds_st = (n14_4 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t198 = (uds_st >> 1) | (uds_tf << 31);
    }
    n15_1 = ~(t196 | t197 | t198);
    n16_7 = ~(n15_1 | n15_2);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n16_2 & (word)1);
        const word uds_tf = (word)0 - (n16_2 >> 15 & (word)1);
        const word uds_st = (n16_2 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n16_7 & (word)1);
        const word uds_tf = (word)0 - (n16_7 >> 14 & (word)1);
        const word uds_st = (n16_7 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t197 = (uds_st >> 2) | (uds_tf << 30);
    }
    n17_7 = t196 | t197;
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n5_0 & (word)1);
        const word uds_tf = (word)0 - (n5_0 >> 16 & (word)1);
        const word uds_st = (n5_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 13) | (uds_tf << 19);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n5_7 & (word)1);
        const word uds_tf = (word)0 - (n5_7 >> 16 & (word)1);
        const word uds_st = (n5_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 13) | (uds_tf << 19);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 16 & (word)1);
        const word uds_st = (n2_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 16) | (uds_tf << 16);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n4_4 & (word)1);
        const word uds_tf = (word)0 - (n4_4 >> 16 & (word)1);
        const word uds_st = (n4_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t199 = (uds_st >> 14) | (uds_tf << 18);
    }
    n17_0 = ~(n16_7 & t196 & t197 & t198 & n16_1 & t199);
    n11_6 = ~(n10_4 | n10_8);
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (pi8 & (word)1);
        const word uds_tf = (word)0 - (pi8 >> 15 & (word)1);
        const word uds_st = (pi8 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 10) | (uds_tf << 22);
    }
    n12_10 = ~(n11_6 & n11_7 & t196);
    n13_3 = n12_2 & n12_10;
    n11_2 = n10_2 ^ n10_4;
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n11_2 & (word)1);
        const word uds_tf = (word)0 - (n11_2 >> 16 & (word)1);
        const word uds_st = (n11_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 7) | (uds_tf << 25);
    }
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (n3_7 & (word)1);
        const word uds_tf = (word)0 - (n3_7 >> 16 & (word)1);
        const word uds_st = (n3_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 15) | (uds_tf << 17);
    }
    n12_8 = ~(t196 & t197);
    n12_3 = ~(n11_6 ^ n11_2);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n8_5 & (word)1);
        const word uds_tf = (word)0 - (n8_5 >> 16 & (word)1);
        const word uds_st = (n8_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n13_1 = ~(n12_3 | n12_1 | t196);
    n14_3 = ~(n13_1 & n13_3);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n6_6 & (word)1);
        const word uds_tf = (word)0 - (n6_6 >> 16 & (word)1);
        const word uds_st = (n6_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    n9_0 = n8_0 & t196;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n9_0 & (word)1);
        const word uds_tf = (word)0 - (n9_0 >> 16 & (word)1);
        const word uds_st = (n9_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n6_5 & (word)1);
        const word uds_tf = (word)0 - (n6_5 >> 16 & (word)1);
        const word uds_st = (n6_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 7) | (uds_tf << 25);
    }
    n10_0 = t196 ^ t197;
    n15_4 = n14_3 & n14_0 & n10_0;
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n7_5 & (word)1);
        const word uds_tf = (word)0 - (n7_5 >> 16 & (word)1);
        const word uds_st = (n7_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 7) | (uds_tf << 25);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n10_9 & (word)1);
        const word uds_tf = (word)0 - (n10_9 >> 16 & (word)1);
        const word uds_st = (n10_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n7_8 & (word)1);
        const word uds_tf = (word)0 - (n7_8 >> 16 & (word)1);
        const word uds_st = (n7_8 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 7) | (uds_tf << 25);
    }
    n11_4 = ~(n10_0 & t196 & t197 & t198);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n11_9 & (word)1);
        const word uds_tf = (word)0 - (n11_9 >> 16 & (word)1);
        const word uds_st = (n11_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n12_9 = n11_4 & t196;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_5 & (word)1);
        const word uds_tf = (word)0 - (n6_5 >> 16 & (word)1);
        const word uds_st = (n6_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n5_6 & (word)1);
        const word uds_tf = (word)0 - (n5_6 >> 15 & (word)1);
        const word uds_st = (n5_6 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t197 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_0 & (word)1);
        const word uds_tf = (word)0 - (n6_0 >> 16 & (word)1);
        const word uds_st = (n6_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n6_4 & (word)1);
        const word uds_tf = (word)0 - (n6_4 >> 16 & (word)1);
        const word uds_st = (n6_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t199 = (uds_st >> 1) | (uds_tf << 31);
    }
    n7_3 = ~(t196 & t197 & t198 & t199);
    n8_3 = ~n7_3;
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n6_1 & (word)1);
        const word uds_tf = (word)0 - (n6_1 >> 16 & (word)1);
        const word uds_st = (n6_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n6_3 & (word)1);
        const word uds_tf = (word)0 - (n6_3 >> 16 & (word)1);
        const word uds_st = (n6_3 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n1_5 & (word)1);
        const word uds_tf = (word)0 - (n1_5 >> 16 & (word)1);
        const word uds_st = (n1_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 8) | (uds_tf << 24);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n6_2 & (word)1);
        const word uds_tf = (word)0 - (n6_2 >> 16 & (word)1);
        const word uds_st = (n6_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t199 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n4_7 & (word)1);
        const word uds_tf = (word)0 - (n4_7 >> 15 & (word)1);
        const word uds_st = (n4_7 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t200 = (uds_st >> 4) | (uds_tf << 28);
    }
    n10_5 = ~(n9_0 & t196 & n9_5 & t197 & t198 & t199 & t200 & n8_3 & n9_2);
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n10_5 & (word)1);
        const word uds_tf = (word)0 - (n10_5 >> 16 & (word)1);
        const word uds_st = (n10_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n10_6 & (word)1);
        const word uds_tf = (word)0 - (n10_6 >> 16 & (word)1);
        const word uds_st = (n10_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (pi15 & (word)1);
        const word uds_tf = (word)0 - (pi15 >> 16 & (word)1);
        const word uds_st = (pi15 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 14) | (uds_tf << 18);
    }
    n11_5 = ~(t196 | t197 | t198);
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n1_8 & (word)1);
        const word uds_tf = (word)0 - (n1_8 >> 15 & (word)1);
        const word uds_st = (n1_8 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t196 = (uds_st >> 8) | (uds_tf << 24);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n2_1 & (word)1);
        const word uds_tf = (word)0 - (n2_1 >> 16 & (word)1);
        const word uds_st = (n2_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 8) | (uds_tf << 24);
    }
    n11_1 = n10_5 & t196 & t197;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n11_1 & (word)1);
        const word uds_tf = (word)0 - (n11_1 >> 16 & (word)1);
        const word uds_st = (n11_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n12_5 = t196 | n11_5;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n12_6 & (word)1);
        const word uds_tf = (word)0 - (n12_6 >> 16 & (word)1);
        const word uds_st = (n12_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    n13_5 = ~(t196 & n12_5);
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (n10_5 & (word)1);
        const word uds_tf = (word)0 - (n10_5 >> 16 & (word)1);
        const word uds_st = (n10_5 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 7) | (uds_tf << 25);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (n3_6 & (word)1);
        const word uds_tf = (word)0 - (n3_6 >> 16 & (word)1);
        const word uds_st = (n3_6 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 14) | (uds_tf << 18);
    }
    n16_8 = ~(n15_2 & n13_5 & t196 & t197);
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (n8_7 & (word)1);
        const word uds_tf = (word)0 - (n8_7 >> 16 & (word)1);
        const word uds_st = (n8_7 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 10) | (uds_tf << 22);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n10_9 & (word)1);
        const word uds_tf = (word)0 - (n10_9 >> 16 & (word)1);
        const word uds_st = (n10_9 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 8) | (uds_tf << 24);
    }
    n17_6 = ~(n16_8 | t196 | t197);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n8_4 & (word)1);
        const word uds_tf = (word)0 - (n8_4 >> 16 & (word)1);
        const word uds_st = (n8_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n12_0 = n11_1 ^ t196;
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n12_1 & (word)1);
        const word uds_tf = (word)0 - (n12_1 >> 16 & (word)1);
        const word uds_st = (n12_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (n12_0 & (word)1);
        const word uds_tf = (word)0 - (n12_0 >> 16 & (word)1);
        const word uds_st = (n12_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 4) | (uds_tf << 28);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (pi10 & (word)1);
        const word uds_tf = (word)0 - (pi10 >> 16 & (word)1);
        const word uds_st = (pi10 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 16) | (uds_tf << 16);
    }
    n13_4 = ~(t196 & t197 & n12_9 & t198);
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (n1_10 & (word)1);
        const word uds_tf = (word)0 - (n1_10 >> 16 & (word)1);
        const word uds_st = (n1_10 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 11) | (uds_tf << 21);
    }
    n13_0 = ~(n12_6 ^ t196 ^ n12_0);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n10_2 & (word)1);
        const word uds_tf = (word)0 - (n10_2 >> 16 & (word)1);
        const word uds_st = (n10_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (n2_2 & (word)1);
        const word uds_tf = (word)0 - (n2_2 >> 16 & (word)1);
        const word uds_st = (n2_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 11) | (uds_tf << 21);
    }
    n14_1 = ~(n13_0 | t196 | n13_1 | t197);
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n11_1 & (word)1);
        const word uds_tf = (word)0 - (n11_1 >> 16 & (word)1);
        const word uds_st = (n11_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    n15_6 = ~(n14_0 | n14_1 | t196);
    n16_4 = ~(n15_4 & n15_6);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (n16_4 & (word)1);
        const word uds_tf = (word)0 - (n16_4 >> 16 & (word)1);
        const word uds_st = (n16_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 2) | (uds_tf << 30);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (n4_5 & (word)1);
        const word uds_tf = (word)0 - (n4_5 >> 15 & (word)1);
        const word uds_st = (n4_5 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t197 = (uds_st >> 13) | (uds_tf << 19);
    }
    n17_10 = t196 & t197;
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (pi15 & (word)1);
        const word uds_tf = (word)0 - (pi15 >> 16 & (word)1);
        const word uds_st = (pi15 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 16) | (uds_tf << 16);
    }
    n17_8 = n16_4 & t196 & n16_0 & n16_6;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n16_4 & (word)1);
        const word uds_tf = (word)0 - (n16_4 >> 16 & (word)1);
        const word uds_st = (n16_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (n4_7 & (word)1);
        const word uds_tf = (word)0 - (n4_7 >> 15 & (word)1);
        const word uds_st = (n4_7 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        t197 = (uds_st >> 12) | (uds_tf << 20);
    }
    n17_5 = t196 ^ t197;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n16_7 & (word)1);
        const word uds_tf = (word)0 - (n16_7 >> 14 & (word)1);
        const word uds_st = (n16_7 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n16_4 & (word)1);
        const word uds_tf = (word)0 - (n16_4 >> 16 & (word)1);
        const word uds_st = (n16_4 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (n11_0 & (word)1);
        const word uds_tf = (word)0 - (n11_0 >> 16 & (word)1);
        const word uds_st = (n11_0 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t198 = (uds_st >> 8) | (uds_tf << 24);
    }
    n17_3 = t196 | t197 | t198;
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (n14_1 & (word)1);
        const word uds_tf = (word)0 - (n14_1 >> 16 & (word)1);
        const word uds_st = (n14_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t196 = (uds_st >> 3) | (uds_tf << 29);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (n5_1 & (word)1);
        const word uds_tf = (word)0 - (n5_1 >> 16 & (word)1);
        const word uds_st = (n5_1 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 12) | (uds_tf << 20);
    }
    n15_0 = t196 | t197;
    n16_3 = n15_0;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n16_3 & (word)1);
        const word uds_tf = (word)0 - (n16_3 >> 13 & (word)1);
        const word uds_st = (n16_3 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (n11_2 & (word)1);
        const word uds_tf = (word)0 - (n11_2 >> 16 & (word)1);
        const word uds_st = (n11_2 & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        t197 = (uds_st >> 9) | (uds_tf << 23);
    }
    n17_4 = t196 | t197;
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (n16_8 & (word)1);
        const word uds_tf = (word)0 - (n16_8 >> 14 & (word)1);
        const word uds_st = (n16_8 & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        t196 = (uds_st >> 1) | (uds_tf << 31);
    }
    n17_1 = ~(t196 | n16_5 | n16_3);
}
