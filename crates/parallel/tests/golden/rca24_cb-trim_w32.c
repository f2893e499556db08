/* parallel-technique unit-delay simulation of `rca24` (cycle-breaking+trimming) */
#include <stdint.h>
typedef uint32_t word;
static word a0_w0 = 0;
static word a0_w1 = 0;
static word a1_w0 = 0;
static word a1_w1 = 0;
static word a2_w0 = 0;
static word a2_w1 = 0;
static word a3_w0 = 0;
static word a3_w1 = 0;
static word a4_w0 = 0;
static word a4_w1 = 0;
static word a5_w0 = 0;
static word a5_w1 = 0;
static word a6_w0 = 0;
static word a6_w1 = 0;
static word a7_w0 = 0;
static word a7_w1 = 0;
static word a8 = 0;
static word a9 = 0;
static word a10 = 0;
static word a11 = 0;
static word a12 = 0;
static word a13 = 0;
static word a14 = 0;
static word a15 = 0;
static word a16 = 0;
static word a17 = 0;
static word a18 = 0;
static word a19 = 0;
static word a20 = 0;
static word a21 = 0;
static word a22 = 0;
static word a23 = 0;
static word b0_w0 = 0;
static word b0_w1 = 0;
static word b1_w0 = 0;
static word b1_w1 = 0;
static word b2_w0 = 0;
static word b2_w1 = 0;
static word b3_w0 = 0;
static word b3_w1 = 0;
static word b4_w0 = 0;
static word b4_w1 = 0;
static word b5_w0 = 0;
static word b5_w1 = 0;
static word b6_w0 = 0;
static word b6_w1 = 0;
static word b7_w0 = 0;
static word b7_w1 = 0;
static word b8 = 0;
static word b9 = 0;
static word b10 = 0;
static word b11 = 0;
static word b12 = 0;
static word b13 = 0;
static word b14 = 0;
static word b15 = 0;
static word b16 = 0;
static word b17 = 0;
static word b18 = 0;
static word b19 = 0;
static word b20 = 0;
static word b21 = 0;
static word b22 = 0;
static word b23 = 0;
static word cin_w0 = 0;
static word cin_w1 = 0;
static word _t0_w0 = 0;
static word _t0_w1 = 0;
static word _t1_w0 = 0;
static word _t1_w1 = 0;
static word _t2_w0 = 0;
static word _t2_w1 = 0;
static word _t3_w0 = 0;
static word _t3_w1 = 0;
static word _t4_w0 = 0;
static word _t4_w1 = 0;
static word _t5_w0 = 0;
static word _t5_w1 = 0;
static word _t6_w0 = 0;
static word _t6_w1 = 0;
static word _t7_w0 = 0;
static word _t7_w1 = 0;
static word _t8_w0 = 0;
static word _t8_w1 = 0;
static word _t9_w0 = 0;
static word _t9_w1 = 0;
static word _t10_w0 = 0;
static word _t10_w1 = 0;
static word _t11_w0 = 0;
static word _t11_w1 = 0;
static word _t12_w0 = 0;
static word _t12_w1 = 0;
static word _t13_w0 = 0;
static word _t13_w1 = 0;
static word _t14_w0 = 0;
static word _t14_w1 = 0;
static word _t15_w0 = 0;
static word _t15_w1 = 0;
static word _t16_w0 = 0;
static word _t16_w1 = 0;
static word _t17_w0 = 0;
static word _t17_w1 = 0;
static word _t18_w0 = 0;
static word _t18_w1 = 0;
static word _t19_w0 = 0;
static word _t19_w1 = 0;
static word _t20_w0 = 0;
static word _t20_w1 = 0;
static word _t21_w0 = 0;
static word _t21_w1 = 0;
static word _t22_w0 = 0;
static word _t22_w1 = 0;
static word _t23_w0 = 0;
static word _t23_w1 = 0;
static word _t24_w0 = 0;
static word _t24_w1 = 0;
static word _t25_w0 = 0;
static word _t25_w1 = 0;
static word _t26_w0 = 0;
static word _t26_w1 = 0;
static word _t27_w0 = 0;
static word _t27_w1 = 0;
static word _t28_w0 = 0;
static word _t28_w1 = 0;
static word _t29_w0 = 0;
static word _t29_w1 = 0;
static word _t30_w0 = 0;
static word _t30_w1 = 0;
static word _t31_w0 = 0;
static word _t31_w1 = 0;
static word _t32_w0 = 0;
static word _t32_w1 = 0;
static word _t33_w0 = 0;
static word _t33_w1 = 0;
static word _t34_w0 = 0;
static word _t34_w1 = 0;
static word _t35_w0 = 0;
static word _t35_w1 = 0;
static word _t36_w0 = 0;
static word _t36_w1 = 0;
static word _t37_w0 = 0;
static word _t37_w1 = 0;
static word _t38_w0 = 0;
static word _t38_w1 = 0;
static word _t39_w0 = 0;
static word _t39_w1 = 0;
static word _t40_w0 = 0;
static word _t40_w1 = 0;
static word _t41_w0 = 0;
static word _t41_w1 = 0;
static word _t42 = 0;
static word _t43_w0 = 0;
static word _t43_w1 = 0;
static word _t44_w0 = 0;
static word _t44_w1 = 0;
static word _t45 = 0;
static word _t46_w0 = 0;
static word _t46_w1 = 0;
static word _t47 = 0;
static word _t48_w0 = 0;
static word _t48_w1 = 0;
static word _t49_w0 = 0;
static word _t49_w1 = 0;
static word _t50 = 0;
static word _t51_w0 = 0;
static word _t51_w1 = 0;
static word _t52 = 0;
static word _t53_w0 = 0;
static word _t53_w1 = 0;
static word _t54_w0 = 0;
static word _t54_w1 = 0;
static word _t55 = 0;
static word _t56_w0 = 0;
static word _t56_w1 = 0;
static word _t57 = 0;
static word _t58_w0 = 0;
static word _t58_w1 = 0;
static word _t59_w0 = 0;
static word _t59_w1 = 0;
static word _t60 = 0;
static word _t61_w0 = 0;
static word _t61_w1 = 0;
static word _t62 = 0;
static word _t63_w0 = 0;
static word _t63_w1 = 0;
static word _t64_w0 = 0;
static word _t64_w1 = 0;
static word _t65 = 0;
static word _t66_w0 = 0;
static word _t66_w1 = 0;
static word _t67 = 0;
static word _t68_w0 = 0;
static word _t68_w1 = 0;
static word _t69_w0 = 0;
static word _t69_w1 = 0;
static word _t70 = 0;
static word _t71_w0 = 0;
static word _t71_w1 = 0;
static word _t72 = 0;
static word _t73_w0 = 0;
static word _t73_w1 = 0;
static word _t74_w0 = 0;
static word _t74_w1 = 0;
static word _t75 = 0;
static word _t76_w0 = 0;
static word _t76_w1 = 0;
static word _t77 = 0;
static word _t78_w0 = 0;
static word _t78_w1 = 0;
static word _t79_w0 = 0;
static word _t79_w1 = 0;
static word _t80 = 0;
static word _t81_w0 = 0;
static word _t81_w1 = 0;
static word _t82 = 0;
static word _t83_w0 = 0;
static word _t83_w1 = 0;
static word _t84_w0 = 0;
static word _t84_w1 = 0;
static word _t85 = 0;
static word _t86_w0 = 0;
static word _t86_w1 = 0;
static word _t87 = 0;
static word _t88_w0 = 0;
static word _t88_w1 = 0;
static word _t89_w0 = 0;
static word _t89_w1 = 0;
static word _t90 = 0;
static word _t91_w0 = 0;
static word _t91_w1 = 0;
static word _t92 = 0;
static word _t93_w0 = 0;
static word _t93_w1 = 0;
static word _t94_w0 = 0;
static word _t94_w1 = 0;
static word _t95 = 0;
static word _t96_w0 = 0;
static word _t96_w1 = 0;
static word _t97 = 0;
static word _t98_w0 = 0;
static word _t98_w1 = 0;
static word _t99_w0 = 0;
static word _t99_w1 = 0;
static word _t100 = 0;
static word _t101_w0 = 0;
static word _t101_w1 = 0;
static word _t102 = 0;
static word _t103_w0 = 0;
static word _t103_w1 = 0;
static word _t104_w0 = 0;
static word _t104_w1 = 0;
static word _t105 = 0;
static word _t106_w0 = 0;
static word _t106_w1 = 0;
static word _t107 = 0;
static word _t108_w0 = 0;
static word _t108_w1 = 0;
static word _t109_w0 = 0;
static word _t109_w1 = 0;
static word _t110 = 0;
static word _t111_w0 = 0;
static word _t111_w1 = 0;
static word _t112 = 0;
static word _t113_w0 = 0;
static word _t113_w1 = 0;
static word _t114_w0 = 0;
static word _t114_w1 = 0;
static word _t115 = 0;
static word _t116_w0 = 0;
static word _t116_w1 = 0;
static word _t117 = 0;
static word _t118_w0 = 0;
static word _t118_w1 = 0;
static word _t119_w0 = 0;
static word _t119_w1 = 0;
static word t275 = 0;
static word t276 = 0;
static word t277 = 0;
static word t278 = 0;
static word t279 = 0;
static word t280 = 0;
static word t281 = 0;
static word t282 = 0;
static word t283 = 0;
static word t284 = 0;
static word t285 = 0;
static word t286 = 0;
static word t287 = 0;
static word t288 = 0;
static word t289 = 0;
static word t290 = 0;
static word t291 = 0;
static word t292 = 0;
static word t293 = 0;
static word t294 = 0;
static word t295 = 0;
static word t296 = 0;
static word t297 = 0;
static word t298 = 0;
static word t299 = 0;
static word t300 = 0;
static word t301 = 0;
static word t302 = 0;
static word t303 = 0;
static word t304 = 0;
static word t305 = 0;
static word t306 = 0;
static word t307 = 0;
static word t308 = 0;
static word t309 = 0;
static word t310 = 0;
static word t311 = 0;

void simulate_one_vector(const word *pi)
{
    { /* input 0: 47 previous-value bit(s) */
        const word uds_p = (word)0 - (a0_w1 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[0];
        a0_w0 = uds_p;
        a0_w1 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 1: 45 previous-value bit(s) */
        const word uds_p = (word)0 - (a1_w1 >> 13 & (word)1);
        const word uds_n = (word)0 - pi[1];
        a1_w0 = uds_p;
        a1_w1 = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 2: 43 previous-value bit(s) */
        const word uds_p = (word)0 - (a2_w1 >> 11 & (word)1);
        const word uds_n = (word)0 - pi[2];
        a2_w0 = uds_p;
        a2_w1 = (uds_p & (word)0x7ff) | (uds_n & ~(word)0x7ff);
    }
    { /* input 3: 41 previous-value bit(s) */
        const word uds_p = (word)0 - (a3_w1 >> 9 & (word)1);
        const word uds_n = (word)0 - pi[3];
        a3_w0 = uds_p;
        a3_w1 = (uds_p & (word)0x1ff) | (uds_n & ~(word)0x1ff);
    }
    { /* input 4: 39 previous-value bit(s) */
        const word uds_p = (word)0 - (a4_w1 >> 7 & (word)1);
        const word uds_n = (word)0 - pi[4];
        a4_w0 = uds_p;
        a4_w1 = (uds_p & (word)0x7f) | (uds_n & ~(word)0x7f);
    }
    { /* input 5: 37 previous-value bit(s) */
        const word uds_p = (word)0 - (a5_w1 >> 5 & (word)1);
        const word uds_n = (word)0 - pi[5];
        a5_w0 = uds_p;
        a5_w1 = (uds_p & (word)0x1f) | (uds_n & ~(word)0x1f);
    }
    { /* input 6: 35 previous-value bit(s) */
        const word uds_p = (word)0 - (a6_w1 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[6];
        a6_w0 = uds_p;
        a6_w1 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 7: 33 previous-value bit(s) */
        const word uds_p = (word)0 - (a7_w1 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[7];
        a7_w0 = uds_p;
        a7_w1 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    { /* input 8: 31 previous-value bit(s) */
        const word uds_p = (word)0 - (a8 >> 31 & (word)1);
        const word uds_n = (word)0 - pi[8];
        a8 = (uds_p & (word)0x7fffffff) | (uds_n & ~(word)0x7fffffff);
    }
    { /* input 9: 29 previous-value bit(s) */
        const word uds_p = (word)0 - (a9 >> 29 & (word)1);
        const word uds_n = (word)0 - pi[9];
        a9 = (uds_p & (word)0x1fffffff) | (uds_n & ~(word)0x1fffffff);
    }
    { /* input 10: 27 previous-value bit(s) */
        const word uds_p = (word)0 - (a10 >> 27 & (word)1);
        const word uds_n = (word)0 - pi[10];
        a10 = (uds_p & (word)0x7ffffff) | (uds_n & ~(word)0x7ffffff);
    }
    { /* input 11: 25 previous-value bit(s) */
        const word uds_p = (word)0 - (a11 >> 25 & (word)1);
        const word uds_n = (word)0 - pi[11];
        a11 = (uds_p & (word)0x1ffffff) | (uds_n & ~(word)0x1ffffff);
    }
    { /* input 12: 23 previous-value bit(s) */
        const word uds_p = (word)0 - (a12 >> 23 & (word)1);
        const word uds_n = (word)0 - pi[12];
        a12 = (uds_p & (word)0x7fffff) | (uds_n & ~(word)0x7fffff);
    }
    { /* input 13: 21 previous-value bit(s) */
        const word uds_p = (word)0 - (a13 >> 21 & (word)1);
        const word uds_n = (word)0 - pi[13];
        a13 = (uds_p & (word)0x1fffff) | (uds_n & ~(word)0x1fffff);
    }
    { /* input 14: 19 previous-value bit(s) */
        const word uds_p = (word)0 - (a14 >> 19 & (word)1);
        const word uds_n = (word)0 - pi[14];
        a14 = (uds_p & (word)0x7ffff) | (uds_n & ~(word)0x7ffff);
    }
    { /* input 15: 17 previous-value bit(s) */
        const word uds_p = (word)0 - (a15 >> 17 & (word)1);
        const word uds_n = (word)0 - pi[15];
        a15 = (uds_p & (word)0x1ffff) | (uds_n & ~(word)0x1ffff);
    }
    { /* input 16: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (a16 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[16];
        a16 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 17: 13 previous-value bit(s) */
        const word uds_p = (word)0 - (a17 >> 13 & (word)1);
        const word uds_n = (word)0 - pi[17];
        a17 = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 18: 11 previous-value bit(s) */
        const word uds_p = (word)0 - (a18 >> 11 & (word)1);
        const word uds_n = (word)0 - pi[18];
        a18 = (uds_p & (word)0x7ff) | (uds_n & ~(word)0x7ff);
    }
    { /* input 19: 9 previous-value bit(s) */
        const word uds_p = (word)0 - (a19 >> 9 & (word)1);
        const word uds_n = (word)0 - pi[19];
        a19 = (uds_p & (word)0x1ff) | (uds_n & ~(word)0x1ff);
    }
    { /* input 20: 7 previous-value bit(s) */
        const word uds_p = (word)0 - (a20 >> 7 & (word)1);
        const word uds_n = (word)0 - pi[20];
        a20 = (uds_p & (word)0x7f) | (uds_n & ~(word)0x7f);
    }
    { /* input 21: 5 previous-value bit(s) */
        const word uds_p = (word)0 - (a21 >> 5 & (word)1);
        const word uds_n = (word)0 - pi[21];
        a21 = (uds_p & (word)0x1f) | (uds_n & ~(word)0x1f);
    }
    { /* input 22: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (a22 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[22];
        a22 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 23: 1 previous-value bit(s) */
        const word uds_p = (word)0 - (a23 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[23];
        a23 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    { /* input 24: 47 previous-value bit(s) */
        const word uds_p = (word)0 - (b0_w1 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[24];
        b0_w0 = uds_p;
        b0_w1 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 25: 45 previous-value bit(s) */
        const word uds_p = (word)0 - (b1_w1 >> 13 & (word)1);
        const word uds_n = (word)0 - pi[25];
        b1_w0 = uds_p;
        b1_w1 = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 26: 43 previous-value bit(s) */
        const word uds_p = (word)0 - (b2_w1 >> 11 & (word)1);
        const word uds_n = (word)0 - pi[26];
        b2_w0 = uds_p;
        b2_w1 = (uds_p & (word)0x7ff) | (uds_n & ~(word)0x7ff);
    }
    { /* input 27: 41 previous-value bit(s) */
        const word uds_p = (word)0 - (b3_w1 >> 9 & (word)1);
        const word uds_n = (word)0 - pi[27];
        b3_w0 = uds_p;
        b3_w1 = (uds_p & (word)0x1ff) | (uds_n & ~(word)0x1ff);
    }
    { /* input 28: 39 previous-value bit(s) */
        const word uds_p = (word)0 - (b4_w1 >> 7 & (word)1);
        const word uds_n = (word)0 - pi[28];
        b4_w0 = uds_p;
        b4_w1 = (uds_p & (word)0x7f) | (uds_n & ~(word)0x7f);
    }
    { /* input 29: 37 previous-value bit(s) */
        const word uds_p = (word)0 - (b5_w1 >> 5 & (word)1);
        const word uds_n = (word)0 - pi[29];
        b5_w0 = uds_p;
        b5_w1 = (uds_p & (word)0x1f) | (uds_n & ~(word)0x1f);
    }
    { /* input 30: 35 previous-value bit(s) */
        const word uds_p = (word)0 - (b6_w1 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[30];
        b6_w0 = uds_p;
        b6_w1 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 31: 33 previous-value bit(s) */
        const word uds_p = (word)0 - (b7_w1 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[31];
        b7_w0 = uds_p;
        b7_w1 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    { /* input 32: 31 previous-value bit(s) */
        const word uds_p = (word)0 - (b8 >> 31 & (word)1);
        const word uds_n = (word)0 - pi[32];
        b8 = (uds_p & (word)0x7fffffff) | (uds_n & ~(word)0x7fffffff);
    }
    { /* input 33: 29 previous-value bit(s) */
        const word uds_p = (word)0 - (b9 >> 29 & (word)1);
        const word uds_n = (word)0 - pi[33];
        b9 = (uds_p & (word)0x1fffffff) | (uds_n & ~(word)0x1fffffff);
    }
    { /* input 34: 27 previous-value bit(s) */
        const word uds_p = (word)0 - (b10 >> 27 & (word)1);
        const word uds_n = (word)0 - pi[34];
        b10 = (uds_p & (word)0x7ffffff) | (uds_n & ~(word)0x7ffffff);
    }
    { /* input 35: 25 previous-value bit(s) */
        const word uds_p = (word)0 - (b11 >> 25 & (word)1);
        const word uds_n = (word)0 - pi[35];
        b11 = (uds_p & (word)0x1ffffff) | (uds_n & ~(word)0x1ffffff);
    }
    { /* input 36: 23 previous-value bit(s) */
        const word uds_p = (word)0 - (b12 >> 23 & (word)1);
        const word uds_n = (word)0 - pi[36];
        b12 = (uds_p & (word)0x7fffff) | (uds_n & ~(word)0x7fffff);
    }
    { /* input 37: 21 previous-value bit(s) */
        const word uds_p = (word)0 - (b13 >> 21 & (word)1);
        const word uds_n = (word)0 - pi[37];
        b13 = (uds_p & (word)0x1fffff) | (uds_n & ~(word)0x1fffff);
    }
    { /* input 38: 19 previous-value bit(s) */
        const word uds_p = (word)0 - (b14 >> 19 & (word)1);
        const word uds_n = (word)0 - pi[38];
        b14 = (uds_p & (word)0x7ffff) | (uds_n & ~(word)0x7ffff);
    }
    { /* input 39: 17 previous-value bit(s) */
        const word uds_p = (word)0 - (b15 >> 17 & (word)1);
        const word uds_n = (word)0 - pi[39];
        b15 = (uds_p & (word)0x1ffff) | (uds_n & ~(word)0x1ffff);
    }
    { /* input 40: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (b16 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[40];
        b16 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 41: 13 previous-value bit(s) */
        const word uds_p = (word)0 - (b17 >> 13 & (word)1);
        const word uds_n = (word)0 - pi[41];
        b17 = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 42: 11 previous-value bit(s) */
        const word uds_p = (word)0 - (b18 >> 11 & (word)1);
        const word uds_n = (word)0 - pi[42];
        b18 = (uds_p & (word)0x7ff) | (uds_n & ~(word)0x7ff);
    }
    { /* input 43: 9 previous-value bit(s) */
        const word uds_p = (word)0 - (b19 >> 9 & (word)1);
        const word uds_n = (word)0 - pi[43];
        b19 = (uds_p & (word)0x1ff) | (uds_n & ~(word)0x1ff);
    }
    { /* input 44: 7 previous-value bit(s) */
        const word uds_p = (word)0 - (b20 >> 7 & (word)1);
        const word uds_n = (word)0 - pi[44];
        b20 = (uds_p & (word)0x7f) | (uds_n & ~(word)0x7f);
    }
    { /* input 45: 5 previous-value bit(s) */
        const word uds_p = (word)0 - (b21 >> 5 & (word)1);
        const word uds_n = (word)0 - pi[45];
        b21 = (uds_p & (word)0x1f) | (uds_n & ~(word)0x1f);
    }
    { /* input 46: 3 previous-value bit(s) */
        const word uds_p = (word)0 - (b22 >> 3 & (word)1);
        const word uds_n = (word)0 - pi[46];
        b22 = (uds_p & (word)0x7) | (uds_n & ~(word)0x7);
    }
    { /* input 47: 1 previous-value bit(s) */
        const word uds_p = (word)0 - (b23 >> 1 & (word)1);
        const word uds_n = (word)0 - pi[47];
        b23 = (uds_p & (word)0x1) | (uds_n & ~(word)0x1);
    }
    { /* input 48: 47 previous-value bit(s) */
        const word uds_p = (word)0 - (cin_w1 >> 15 & (word)1);
        const word uds_n = (word)0 - pi[48];
        cin_w0 = uds_p;
        cin_w1 = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    _t0_w0 = (word)0 - (_t0_w1 >> 16 & 1);
    _t1_w0 = (word)0 - (_t1_w1 >> 16 & 1);
    _t2_w0 = (word)0 - (_t2_w1 >> 15 & 1);
    _t3_w0 = (word)0 - (_t3_w1 >> 16 & 1);
    _t4_w0 = (word)0 - (_t4_w1 >> 16 & 1);
    _t5_w0 = (word)0 - (_t5_w1 >> 14 & 1);
    _t6_w0 = (word)0 - (_t6_w1 >> 16 & 1);
    _t7_w0 = (word)0 - (_t7_w1 >> 13 & 1);
    _t8_w0 = (word)0 - (_t8_w1 >> 16 & 1);
    _t9_w0 = (word)0 - (_t9_w1 >> 16 & 1);
    _t10_w0 = (word)0 - (_t10_w1 >> 12 & 1);
    _t11_w0 = (word)0 - (_t11_w1 >> 16 & 1);
    _t12_w0 = (word)0 - (_t12_w1 >> 11 & 1);
    _t13_w0 = (word)0 - (_t13_w1 >> 16 & 1);
    _t14_w0 = (word)0 - (_t14_w1 >> 16 & 1);
    _t15_w0 = (word)0 - (_t15_w1 >> 10 & 1);
    _t16_w0 = (word)0 - (_t16_w1 >> 16 & 1);
    _t17_w0 = (word)0 - (_t17_w1 >> 9 & 1);
    _t18_w0 = (word)0 - (_t18_w1 >> 16 & 1);
    _t19_w0 = (word)0 - (_t19_w1 >> 16 & 1);
    _t20_w0 = (word)0 - (_t20_w1 >> 8 & 1);
    _t21_w0 = (word)0 - (_t21_w1 >> 16 & 1);
    _t22_w0 = (word)0 - (_t22_w1 >> 7 & 1);
    _t23_w0 = (word)0 - (_t23_w1 >> 16 & 1);
    _t24_w0 = (word)0 - (_t24_w1 >> 16 & 1);
    _t25_w0 = (word)0 - (_t25_w1 >> 6 & 1);
    _t26_w0 = (word)0 - (_t26_w1 >> 16 & 1);
    _t27_w0 = (word)0 - (_t27_w1 >> 5 & 1);
    _t28_w0 = (word)0 - (_t28_w1 >> 16 & 1);
    _t29_w0 = (word)0 - (_t29_w1 >> 16 & 1);
    _t30_w0 = (word)0 - (_t30_w1 >> 4 & 1);
    _t31_w0 = (word)0 - (_t31_w1 >> 16 & 1);
    _t32_w0 = (word)0 - (_t32_w1 >> 3 & 1);
    _t33_w0 = (word)0 - (_t33_w1 >> 16 & 1);
    _t34_w0 = (word)0 - (_t34_w1 >> 16 & 1);
    _t35_w0 = (word)0 - (_t35_w1 >> 2 & 1);
    _t36_w0 = (word)0 - (_t36_w1 >> 16 & 1);
    _t37_w0 = (word)0 - (_t37_w1 >> 1 & 1);
    _t38_w0 = (word)0 - (_t38_w1 >> 16 & 1);
    _t39_w0 = (word)0 - (_t39_w1 >> 16 & 1);
    _t40_w0 = (word)0 - (_t40_w1 >> 0 & 1);
    _t41_w0 = (word)0 - (_t41_w1 >> 16 & 1);
    _t43_w0 = (word)0 - (_t43_w1 >> 16 & 1);
    _t2_w1 = a0_w1 & b0_w1;
    t310 = a0_w0 ^ b0_w0;
    t311 = a0_w1 ^ b0_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 15 & (word)1);
        const word uds_st = (t311 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        _t0_w0 = (uds_bf >> 31) | (t310 << 1);
        _t0_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t3_w1 = _t0_w1 & cin_w1;
    _t4_w1 = _t2_w1 | _t3_w1;
    _t1_w1 = _t0_w1 ^ cin_w1;
    _t7_w1 = a1_w1 & b1_w1;
    t310 = a1_w0 ^ b1_w0;
    t311 = a1_w1 ^ b1_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 13 & (word)1);
        const word uds_st = (t311 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        _t5_w0 = (uds_bf >> 31) | (t310 << 1);
        _t5_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t8_w1 = _t5_w1 & _t4_w1;
    _t9_w1 = _t7_w1 | _t8_w1;
    _t6_w1 = _t5_w1 ^ _t4_w1;
    _t12_w1 = a2_w1 & b2_w1;
    t310 = a2_w0 ^ b2_w0;
    t311 = a2_w1 ^ b2_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 11 & (word)1);
        const word uds_st = (t311 & (word)0xfff) | (uds_tf & ~(word)0xfff);
        _t10_w0 = (uds_bf >> 31) | (t310 << 1);
        _t10_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t13_w1 = _t10_w1 & _t9_w1;
    _t14_w1 = _t12_w1 | _t13_w1;
    _t11_w1 = _t10_w1 ^ _t9_w1;
    _t17_w1 = a3_w1 & b3_w1;
    t310 = a3_w0 ^ b3_w0;
    t311 = a3_w1 ^ b3_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 9 & (word)1);
        const word uds_st = (t311 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        _t15_w0 = (uds_bf >> 31) | (t310 << 1);
        _t15_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t18_w1 = _t15_w1 & _t14_w1;
    _t19_w1 = _t17_w1 | _t18_w1;
    _t16_w1 = _t15_w1 ^ _t14_w1;
    _t22_w1 = a4_w1 & b4_w1;
    t310 = a4_w0 ^ b4_w0;
    t311 = a4_w1 ^ b4_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 7 & (word)1);
        const word uds_st = (t311 & (word)0xff) | (uds_tf & ~(word)0xff);
        _t20_w0 = (uds_bf >> 31) | (t310 << 1);
        _t20_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t23_w1 = _t20_w1 & _t19_w1;
    _t24_w1 = _t22_w1 | _t23_w1;
    _t21_w1 = _t20_w1 ^ _t19_w1;
    _t27_w1 = a5_w1 & b5_w1;
    t310 = a5_w0 ^ b5_w0;
    t311 = a5_w1 ^ b5_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 5 & (word)1);
        const word uds_st = (t311 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        _t25_w0 = (uds_bf >> 31) | (t310 << 1);
        _t25_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t28_w1 = _t25_w1 & _t24_w1;
    _t29_w1 = _t27_w1 | _t28_w1;
    _t26_w1 = _t25_w1 ^ _t24_w1;
    _t32_w1 = a6_w1 & b6_w1;
    t310 = a6_w0 ^ b6_w0;
    t311 = a6_w1 ^ b6_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 3 & (word)1);
        const word uds_st = (t311 & (word)0xf) | (uds_tf & ~(word)0xf);
        _t30_w0 = (uds_bf >> 31) | (t310 << 1);
        _t30_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t33_w1 = _t30_w1 & _t29_w1;
    _t34_w1 = _t32_w1 | _t33_w1;
    _t31_w1 = _t30_w1 ^ _t29_w1;
    _t37_w1 = a7_w1 & b7_w1;
    t310 = a7_w0 ^ b7_w0;
    t311 = a7_w1 ^ b7_w1;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t311 >> 1 & (word)1);
        const word uds_st = (t311 & (word)0x3) | (uds_tf & ~(word)0x3);
        _t35_w0 = (uds_bf >> 31) | (t310 << 1);
        _t35_w1 = (t310 >> 31) | (uds_st << 1);
    }
    _t38_w1 = _t35_w1 & _t34_w1;
    _t39_w1 = _t37_w1 | _t38_w1;
    _t36_w1 = _t35_w1 ^ _t34_w1;
    _t42 = a8 & b8;
    t275 = (word)0 - (_t42 >> 31 & 1);
    t310 = a8 ^ b8;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 31 & (word)1);
        const word uds_st = t310;
        _t40_w0 = (uds_bf >> 31) | (uds_st << 1);
        _t40_w1 = (uds_st >> 31) | (uds_tf << 1);
    }
    _t43_w1 = _t40_w1 & _t39_w1;
    _t44_w0 = _t42 | _t43_w0;
    _t44_w1 = t275 | _t43_w1;
    _t41_w1 = _t40_w1 ^ _t39_w1;
    _t47 = a9 & b9;
    t277 = (word)0 - (_t47 >> 29 & 1);
    t310 = a9 ^ b9;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 29 & (word)1);
        const word uds_st = (t310 & (word)0x3fffffff) | (uds_tf & ~(word)0x3fffffff);
        _t45 = (uds_bf >> 31) | (uds_st << 1);
    }
    t276 = (word)0 - (_t45 >> 30 & 1);
    _t48_w0 = _t45 & _t44_w0;
    _t48_w1 = t276 & _t44_w1;
    _t49_w0 = _t47 | _t48_w0;
    _t49_w1 = t277 | _t48_w1;
    _t46_w0 = _t45 ^ _t44_w0;
    _t46_w1 = t276 ^ _t44_w1;
    _t52 = a10 & b10;
    t279 = (word)0 - (_t52 >> 27 & 1);
    t310 = a10 ^ b10;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 27 & (word)1);
        const word uds_st = (t310 & (word)0xfffffff) | (uds_tf & ~(word)0xfffffff);
        _t50 = (uds_bf >> 31) | (uds_st << 1);
    }
    t278 = (word)0 - (_t50 >> 28 & 1);
    _t53_w0 = _t50 & _t49_w0;
    _t53_w1 = t278 & _t49_w1;
    _t54_w0 = _t52 | _t53_w0;
    _t54_w1 = t279 | _t53_w1;
    _t51_w0 = _t50 ^ _t49_w0;
    _t51_w1 = t278 ^ _t49_w1;
    _t57 = a11 & b11;
    t281 = (word)0 - (_t57 >> 25 & 1);
    t310 = a11 ^ b11;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 25 & (word)1);
        const word uds_st = (t310 & (word)0x3ffffff) | (uds_tf & ~(word)0x3ffffff);
        _t55 = (uds_bf >> 31) | (uds_st << 1);
    }
    t280 = (word)0 - (_t55 >> 26 & 1);
    _t58_w0 = _t55 & _t54_w0;
    _t58_w1 = t280 & _t54_w1;
    _t59_w0 = _t57 | _t58_w0;
    _t59_w1 = t281 | _t58_w1;
    _t56_w0 = _t55 ^ _t54_w0;
    _t56_w1 = t280 ^ _t54_w1;
    _t62 = a12 & b12;
    t283 = (word)0 - (_t62 >> 23 & 1);
    t310 = a12 ^ b12;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 23 & (word)1);
        const word uds_st = (t310 & (word)0xffffff) | (uds_tf & ~(word)0xffffff);
        _t60 = (uds_bf >> 31) | (uds_st << 1);
    }
    t282 = (word)0 - (_t60 >> 24 & 1);
    _t63_w0 = _t60 & _t59_w0;
    _t63_w1 = t282 & _t59_w1;
    _t64_w0 = _t62 | _t63_w0;
    _t64_w1 = t283 | _t63_w1;
    _t61_w0 = _t60 ^ _t59_w0;
    _t61_w1 = t282 ^ _t59_w1;
    _t67 = a13 & b13;
    t285 = (word)0 - (_t67 >> 21 & 1);
    t310 = a13 ^ b13;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 21 & (word)1);
        const word uds_st = (t310 & (word)0x3fffff) | (uds_tf & ~(word)0x3fffff);
        _t65 = (uds_bf >> 31) | (uds_st << 1);
    }
    t284 = (word)0 - (_t65 >> 22 & 1);
    _t68_w0 = _t65 & _t64_w0;
    _t68_w1 = t284 & _t64_w1;
    _t69_w0 = _t67 | _t68_w0;
    _t69_w1 = t285 | _t68_w1;
    _t66_w0 = _t65 ^ _t64_w0;
    _t66_w1 = t284 ^ _t64_w1;
    _t72 = a14 & b14;
    t287 = (word)0 - (_t72 >> 19 & 1);
    t310 = a14 ^ b14;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 19 & (word)1);
        const word uds_st = (t310 & (word)0xfffff) | (uds_tf & ~(word)0xfffff);
        _t70 = (uds_bf >> 31) | (uds_st << 1);
    }
    t286 = (word)0 - (_t70 >> 20 & 1);
    _t73_w0 = _t70 & _t69_w0;
    _t73_w1 = t286 & _t69_w1;
    _t74_w0 = _t72 | _t73_w0;
    _t74_w1 = t287 | _t73_w1;
    _t71_w0 = _t70 ^ _t69_w0;
    _t71_w1 = t286 ^ _t69_w1;
    _t77 = a15 & b15;
    t289 = (word)0 - (_t77 >> 17 & 1);
    t310 = a15 ^ b15;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 17 & (word)1);
        const word uds_st = (t310 & (word)0x3ffff) | (uds_tf & ~(word)0x3ffff);
        _t75 = (uds_bf >> 31) | (uds_st << 1);
    }
    t288 = (word)0 - (_t75 >> 18 & 1);
    _t78_w0 = _t75 & _t74_w0;
    _t78_w1 = t288 & _t74_w1;
    _t79_w0 = _t77 | _t78_w0;
    _t79_w1 = t289 | _t78_w1;
    _t76_w0 = _t75 ^ _t74_w0;
    _t76_w1 = t288 ^ _t74_w1;
    _t82 = a16 & b16;
    t291 = (word)0 - (_t82 >> 15 & 1);
    t310 = a16 ^ b16;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 15 & (word)1);
        const word uds_st = (t310 & (word)0xffff) | (uds_tf & ~(word)0xffff);
        _t80 = (uds_bf >> 31) | (uds_st << 1);
    }
    t290 = (word)0 - (_t80 >> 16 & 1);
    _t83_w0 = _t80 & _t79_w0;
    _t83_w1 = t290 & _t79_w1;
    _t84_w0 = _t82 | _t83_w0;
    _t84_w1 = t291 | _t83_w1;
    _t81_w0 = _t80 ^ _t79_w0;
    _t81_w1 = t290 ^ _t79_w1;
    _t87 = a17 & b17;
    t293 = (word)0 - (_t87 >> 13 & 1);
    t310 = a17 ^ b17;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 13 & (word)1);
        const word uds_st = (t310 & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        _t85 = (uds_bf >> 31) | (uds_st << 1);
    }
    t292 = (word)0 - (_t85 >> 14 & 1);
    _t88_w0 = _t85 & _t84_w0;
    _t88_w1 = t292 & _t84_w1;
    _t89_w0 = _t87 | _t88_w0;
    _t89_w1 = t293 | _t88_w1;
    _t86_w0 = _t85 ^ _t84_w0;
    _t86_w1 = t292 ^ _t84_w1;
    _t92 = a18 & b18;
    t295 = (word)0 - (_t92 >> 11 & 1);
    t310 = a18 ^ b18;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 11 & (word)1);
        const word uds_st = (t310 & (word)0xfff) | (uds_tf & ~(word)0xfff);
        _t90 = (uds_bf >> 31) | (uds_st << 1);
    }
    t294 = (word)0 - (_t90 >> 12 & 1);
    _t93_w0 = _t90 & _t89_w0;
    _t93_w1 = t294 & _t89_w1;
    _t94_w0 = _t92 | _t93_w0;
    _t94_w1 = t295 | _t93_w1;
    _t91_w0 = _t90 ^ _t89_w0;
    _t91_w1 = t294 ^ _t89_w1;
    _t97 = a19 & b19;
    t297 = (word)0 - (_t97 >> 9 & 1);
    t310 = a19 ^ b19;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 9 & (word)1);
        const word uds_st = (t310 & (word)0x3ff) | (uds_tf & ~(word)0x3ff);
        _t95 = (uds_bf >> 31) | (uds_st << 1);
    }
    t296 = (word)0 - (_t95 >> 10 & 1);
    _t98_w0 = _t95 & _t94_w0;
    _t98_w1 = t296 & _t94_w1;
    _t99_w0 = _t97 | _t98_w0;
    _t99_w1 = t297 | _t98_w1;
    _t96_w0 = _t95 ^ _t94_w0;
    _t96_w1 = t296 ^ _t94_w1;
    _t102 = a20 & b20;
    t299 = (word)0 - (_t102 >> 7 & 1);
    t310 = a20 ^ b20;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 7 & (word)1);
        const word uds_st = (t310 & (word)0xff) | (uds_tf & ~(word)0xff);
        _t100 = (uds_bf >> 31) | (uds_st << 1);
    }
    t298 = (word)0 - (_t100 >> 8 & 1);
    _t103_w0 = _t100 & _t99_w0;
    _t103_w1 = t298 & _t99_w1;
    _t104_w0 = _t102 | _t103_w0;
    _t104_w1 = t299 | _t103_w1;
    _t101_w0 = _t100 ^ _t99_w0;
    _t101_w1 = t298 ^ _t99_w1;
    _t107 = a21 & b21;
    t301 = (word)0 - (_t107 >> 5 & 1);
    t310 = a21 ^ b21;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 5 & (word)1);
        const word uds_st = (t310 & (word)0x3f) | (uds_tf & ~(word)0x3f);
        _t105 = (uds_bf >> 31) | (uds_st << 1);
    }
    t300 = (word)0 - (_t105 >> 6 & 1);
    _t108_w0 = _t105 & _t104_w0;
    _t108_w1 = t300 & _t104_w1;
    _t109_w0 = _t107 | _t108_w0;
    _t109_w1 = t301 | _t108_w1;
    _t106_w0 = _t105 ^ _t104_w0;
    _t106_w1 = t300 ^ _t104_w1;
    _t112 = a22 & b22;
    t303 = (word)0 - (_t112 >> 3 & 1);
    t310 = a22 ^ b22;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 3 & (word)1);
        const word uds_st = (t310 & (word)0xf) | (uds_tf & ~(word)0xf);
        _t110 = (uds_bf >> 31) | (uds_st << 1);
    }
    t302 = (word)0 - (_t110 >> 4 & 1);
    _t113_w0 = _t110 & _t109_w0;
    _t113_w1 = t302 & _t109_w1;
    _t114_w0 = _t112 | _t113_w0;
    _t114_w1 = t303 | _t113_w1;
    _t111_w0 = _t110 ^ _t109_w0;
    _t111_w1 = t302 ^ _t109_w1;
    _t117 = a23 & b23;
    t305 = (word)0 - (_t117 >> 1 & 1);
    t310 = a23 ^ b23;
    { /* shifted field presentation (+1) */
        const word uds_bf = (word)0 - (t310 & (word)1);
        const word uds_tf = (word)0 - (t310 >> 1 & (word)1);
        const word uds_st = (t310 & (word)0x3) | (uds_tf & ~(word)0x3);
        _t115 = (uds_bf >> 31) | (uds_st << 1);
    }
    t304 = (word)0 - (_t115 >> 2 & 1);
    _t118_w0 = _t115 & _t114_w0;
    _t118_w1 = t304 & _t114_w1;
    _t119_w0 = _t117 | _t118_w0;
    _t119_w1 = t305 | _t118_w1;
    _t116_w0 = _t115 ^ _t114_w0;
    _t116_w1 = t304 ^ _t114_w1;
}
