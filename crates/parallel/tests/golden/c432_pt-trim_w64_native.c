/* parallel-technique unit-delay simulation of `c432` (path-tracing+trimming) */
#include <stdint.h>
typedef uint64_t word;

__attribute__((noinline, visibility("hidden")))
void uds_block_0(word *restrict s, const word *restrict pi)
{
    { /* input 0: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (s[0] >> 15 & (word)1);
        const word uds_n = (word)0 - pi[0];
        s[0] = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 1: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[1] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[1];
        s[1] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 2: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (s[2] >> 15 & (word)1);
        const word uds_n = (word)0 - pi[2];
        s[2] = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 3: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[3] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[3];
        s[3] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 4: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[4] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[4];
        s[4] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 5: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[5] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[5];
        s[5] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 6: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[6] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[6];
        s[6] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 7: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[7] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[7];
        s[7] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 8: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (s[8] >> 15 & (word)1);
        const word uds_n = (word)0 - pi[8];
        s[8] = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 9: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[9] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[9];
        s[9] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 10: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[10] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[10];
        s[10] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 11: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[11] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[11];
        s[11] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 12: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (s[12] >> 15 & (word)1);
        const word uds_n = (word)0 - pi[12];
        s[12] = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 13: 12 previous-value bit(s) */
        const word uds_p = (word)0 - (s[13] >> 12 & (word)1);
        const word uds_n = (word)0 - pi[13];
        s[13] = (uds_p & (word)0xfff) | (uds_n & ~(word)0xfff);
    }
    { /* input 14: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[14] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[14];
        s[14] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 15: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[15] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[15];
        s[15] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 16: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[16] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[16];
        s[16] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 17: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[17] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[17];
        s[17] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 18: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[18] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[18];
        s[18] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 19: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[19] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[19];
        s[19] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 20: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[20] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[20];
        s[20] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 21: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[21] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[21];
        s[21] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 22: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[22] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[22];
        s[22] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 23: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[23] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[23];
        s[23] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 24: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[24] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[24];
        s[24] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 25: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[25] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[25];
        s[25] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 26: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[26] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[26];
        s[26] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 27: 13 previous-value bit(s) */
        const word uds_p = (word)0 - (s[27] >> 13 & (word)1);
        const word uds_n = (word)0 - pi[27];
        s[27] = (uds_p & (word)0x1fff) | (uds_n & ~(word)0x1fff);
    }
    { /* input 28: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[28] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[28];
        s[28] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 29: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[29] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[29];
        s[29] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 30: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[30] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[30];
        s[30] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 31: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[31] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[31];
        s[31] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 32: 15 previous-value bit(s) */
        const word uds_p = (word)0 - (s[32] >> 15 & (word)1);
        const word uds_n = (word)0 - pi[32];
        s[32] = (uds_p & (word)0x7fff) | (uds_n & ~(word)0x7fff);
    }
    { /* input 33: 8 previous-value bit(s) */
        const word uds_p = (word)0 - (s[33] >> 8 & (word)1);
        const word uds_n = (word)0 - pi[33];
        s[33] = (uds_p & (word)0xff) | (uds_n & ~(word)0xff);
    }
    { /* input 34: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[34] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[34];
        s[34] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
    { /* input 35: 16 previous-value bit(s) */
        const word uds_p = (word)0 - (s[35] >> 16 & (word)1);
        const word uds_n = (word)0 - pi[35];
        s[35] = (uds_p & (word)0xffff) | (uds_n & ~(word)0xffff);
    }
}

__attribute__((noinline, visibility("hidden")))
void uds_block_1(word *restrict s, const word *restrict pi)
{
    s[47] = s[15] & s[29] & s[1];
    s[39] = s[2];
    s[51] = ~(s[7] & s[19] & s[16] & s[3] & s[15]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_2(word *restrict s, const word *restrict pi)
{
    s[53] = ~(s[51] & s[47]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_3(word *restrict s, const word *restrict pi)
{
    s[38] = s[23] | s[4];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[5] & (word)1);
        const word uds_tf = (word)0 - (s[5] >> 16 & (word)1);
        const word uds_st = (s[5] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[50] = ~(s[196] | s[32]);
    s[40] = ~(s[20] & s[5] & s[24]);
    s[37] = ~(s[26] & s[6] & s[17]);
    s[49] = s[7] & s[15] & s[21] & s[34];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[15] & (word)1);
        const word uds_tf = (word)0 - (s[15] >> 16 & (word)1);
        const word uds_st = (s[15] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[44] = s[196] & s[12] & s[8];
    s[45] = ~(s[28] & s[9] & s[24]);
    s[41] = s[20] | s[26] | s[10] | s[35];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_4(word *restrict s, const word *restrict pi)
{
    s[52] = s[41] & s[0];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_5(word *restrict s, const word *restrict pi)
{
    s[48] = s[35] & s[18] & s[11];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_6(word *restrict s, const word *restrict pi)
{
    s[57] = ~(s[48] | s[37]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_7(word *restrict s, const word *restrict pi)
{
    s[67] = s[52] | s[57];
    s[66] = ~(s[53] | s[39] | s[57]);
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[57] & (word)1);
        const word uds_tf = (word)0 - (s[57] >> 16 & (word)1);
        const word uds_st = (s[57] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[61] = s[196] ^ s[27];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_8(word *restrict s, const word *restrict pi)
{
    s[36] = s[14] & s[25] & s[26];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_9(word *restrict s, const word *restrict pi)
{
    s[56] = ~(s[36] & s[45] & s[40] & s[40]);
    s[54] = s[38] | s[49] | s[36];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_10(word *restrict s, const word *restrict pi)
{
    s[42] = s[30] | s[17];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_11(word *restrict s, const word *restrict pi)
{
    s[58] = ~(s[37] ^ s[42]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_12(word *restrict s, const word *restrict pi)
{
    s[62] = ~(s[58] | s[56]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_13(word *restrict s, const word *restrict pi)
{
    s[72] = s[66] | s[67] | s[67] | s[62];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_14(word *restrict s, const word *restrict pi)
{
    s[43] = s[20] & s[18];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_15(word *restrict s, const word *restrict pi)
{
    s[55] = s[43] & s[48];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_16(word *restrict s, const word *restrict pi)
{
    s[65] = s[55];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_17(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[58] & (word)1);
        const word uds_tf = (word)0 - (s[58] >> 16 & (word)1);
        const word uds_st = (s[58] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[57] & (word)1);
        const word uds_tf = (word)0 - (s[57] >> 16 & (word)1);
        const word uds_st = (s[57] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[68] = s[65] & s[196] & s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_18(word *restrict s, const word *restrict pi)
{
    s[64] = s[52] | s[53] | s[50] | s[44] | s[54] | s[55];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_19(word *restrict s, const word *restrict pi)
{
    s[76] = s[64];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_20(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[65] & (word)1);
        const word uds_tf = (word)0 - (s[65] >> 16 & (word)1);
        const word uds_st = (s[65] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[84] = s[76] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_21(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[45] & (word)1);
        const word uds_tf = (word)0 - (s[45] >> 16 & (word)1);
        const word uds_st = (s[45] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[91] = ~(s[84] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_22(word *restrict s, const word *restrict pi)
{
    s[103] = s[91] | s[91];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_23(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[64] & (word)1);
        const word uds_tf = (word)0 - (s[64] >> 16 & (word)1);
        const word uds_st = (s[64] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[73] = s[61] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_24(word *restrict s, const word *restrict pi)
{
    s[46] = s[22] & s[31];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_25(word *restrict s, const word *restrict pi)
{
    s[59] = ~(s[40] & s[46]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_26(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[61] & (word)1);
        const word uds_tf = (word)0 - (s[61] >> 15 & (word)1);
        const word uds_st = (s[61] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[65] & (word)1);
        const word uds_tf = (word)0 - (s[65] >> 16 & (word)1);
        const word uds_st = (s[65] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[59] & (word)1);
        const word uds_tf = (word)0 - (s[59] >> 16 & (word)1);
        const word uds_st = (s[59] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[71] = ~(s[196] | s[197] | s[198]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_27(word *restrict s, const word *restrict pi)
{
    s[63] = s[59] & s[55];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_28(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[44] & (word)1);
        const word uds_tf = (word)0 - (s[44] >> 15 & (word)1);
        const word uds_st = (s[44] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[69] = ~(s[63] ^ s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_29(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[47] & (word)1);
        const word uds_tf = (word)0 - (s[47] >> 16 & (word)1);
        const word uds_st = (s[47] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[82] = ~(s[69] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_30(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[45] & (word)1);
        const word uds_tf = (word)0 - (s[45] >> 16 & (word)1);
        const word uds_st = (s[45] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[86] = s[82] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_31(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[37] & (word)1);
        const word uds_tf = (word)0 - (s[37] >> 16 & (word)1);
        const word uds_st = (s[37] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[79] = s[69] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_32(word *restrict s, const word *restrict pi)
{
    s[87] = s[79] | s[84];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_33(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[76] & (word)1);
        const word uds_tf = (word)0 - (s[76] >> 16 & (word)1);
        const word uds_st = (s[76] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[94] = ~(s[87] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_34(word *restrict s, const word *restrict pi)
{
    s[77] = ~s[69];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_35(word *restrict s, const word *restrict pi)
{
    s[60] = ~(s[57] & s[59]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_36(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[60] & (word)1);
        const word uds_tf = (word)0 - (s[60] >> 16 & (word)1);
        const word uds_st = (s[60] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[59] & (word)1);
        const word uds_tf = (word)0 - (s[59] >> 16 & (word)1);
        const word uds_st = (s[59] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[75] = s[196] | s[13] | s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_37(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[72] & (word)1);
        const word uds_tf = (word)0 - (s[72] >> 16 & (word)1);
        const word uds_st = (s[72] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[83] = s[196] & s[73] & s[75];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_38(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[37] & (word)1);
        const word uds_tf = (word)0 - (s[37] >> 16 & (word)1);
        const word uds_st = (s[37] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[74] = ~(s[60] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_39(word *restrict s, const word *restrict pi)
{
    s[81] = s[74] & s[76];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_40(word *restrict s, const word *restrict pi)
{
    s[85] = s[82] ^ s[81];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_41(word *restrict s, const word *restrict pi)
{
    s[78] = ~(s[74] | s[72]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_42(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[56] & (word)1);
        const word uds_tf = (word)0 - (s[56] >> 16 & (word)1);
        const word uds_st = (s[56] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[89] = ~(s[78] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_43(word *restrict s, const word *restrict pi)
{
    s[102] = s[85] | s[89];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_44(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (s[42] & (word)1);
        const word uds_tf = (word)0 - (s[42] >> 16 & (word)1);
        const word uds_st = (s[42] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 6) | (uds_tf << 58);
    }
    s[112] = ~(s[102] | s[196]);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[54] & (word)1);
        const word uds_tf = (word)0 - (s[54] >> 16 & (word)1);
        const word uds_st = (s[54] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[4] & (word)1);
        const word uds_tf = (word)0 - (s[4] >> 16 & (word)1);
        const word uds_st = (s[4] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 7) | (uds_tf << 57);
    }
    s[106] = ~(s[102] ^ s[196] ^ s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_45(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[81] & (word)1);
        const word uds_tf = (word)0 - (s[81] >> 16 & (word)1);
        const word uds_st = (s[81] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[121] = s[106] | s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_46(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[91] & (word)1);
        const word uds_tf = (word)0 - (s[91] >> 16 & (word)1);
        const word uds_st = (s[91] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[132] = s[121] | s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_47(word *restrict s, const word *restrict pi)
{
    s[101] = ~(s[86] & s[89]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_48(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[101] & (word)1);
        const word uds_tf = (word)0 - (s[101] >> 16 & (word)1);
        const word uds_st = (s[101] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[111] = s[196] ^ s[33];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_49(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (s[9] & (word)1);
        const word uds_tf = (word)0 - (s[9] >> 16 & (word)1);
        const word uds_st = (s[9] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 6) | (uds_tf << 58);
    }
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[47] & (word)1);
        const word uds_tf = (word)0 - (s[47] >> 16 & (word)1);
        const word uds_st = (s[47] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 5) | (uds_tf << 59);
    }
    s[100] = s[89] & s[196] & s[197];
    s[92] = ~(s[86] & s[91] & s[87] & s[89]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_50(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[53] & (word)1);
        const word uds_tf = (word)0 - (s[53] >> 16 & (word)1);
        const word uds_st = (s[53] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[85] & (word)1);
        const word uds_tf = (word)0 - (s[85] >> 16 & (word)1);
        const word uds_st = (s[85] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[113] = ~(s[92] & s[196] & s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_51(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (s[53] & (word)1);
        const word uds_tf = (word)0 - (s[53] >> 16 & (word)1);
        const word uds_st = (s[53] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 6) | (uds_tf << 58);
    }
    s[118] = ~(s[113] & s[112] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_52(word *restrict s, const word *restrict pi)
{
    s[88] = ~(s[78] | s[77]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_53(word *restrict s, const word *restrict pi)
{
    s[93] = s[88] & s[71];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_54(word *restrict s, const word *restrict pi)
{
    s[115] = s[103] & s[93];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_55(word *restrict s, const word *restrict pi)
{
    s[119] = ~(s[115] ^ s[106]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_56(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[53] & (word)1);
        const word uds_tf = (word)0 - (s[53] >> 16 & (word)1);
        const word uds_st = (s[53] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[70] = ~(s[65] | s[60] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_57(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[85] & (word)1);
        const word uds_tf = (word)0 - (s[85] >> 16 & (word)1);
        const word uds_st = (s[85] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[70] & (word)1);
        const word uds_tf = (word)0 - (s[70] >> 16 & (word)1);
        const word uds_st = (s[70] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[104] = ~(s[196] ^ s[197]);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[70] & (word)1);
        const word uds_tf = (word)0 - (s[70] >> 16 & (word)1);
        const word uds_st = (s[70] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[97] = s[86] | s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_58(word *restrict s, const word *restrict pi)
{
    s[114] = s[102] & s[100] & s[97];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_59(word *restrict s, const word *restrict pi)
{
    s[80] = s[68] & s[70];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_60(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[38] & (word)1);
        const word uds_tf = (word)0 - (s[38] >> 16 & (word)1);
        const word uds_st = (s[38] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[90] = s[80] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_61(word *restrict s, const word *restrict pi)
{
    s[99] = ~(s[90] | s[83]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_62(word *restrict s, const word *restrict pi)
{
    s[109] = ~(s[94] | s[99]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_63(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[29] & (word)1);
        const word uds_tf = (word)0 - (s[29] >> 16 & (word)1);
        const word uds_st = (s[29] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[122] = s[109] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_64(word *restrict s, const word *restrict pi)
{
    s[130] = ~(s[118] & s[122]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_65(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[89] & (word)1);
        const word uds_tf = (word)0 - (s[89] >> 16 & (word)1);
        const word uds_st = (s[89] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[142] = s[132] ^ s[196] ^ s[130];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_66(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (s[18] & (word)1);
        const word uds_tf = (word)0 - (s[18] >> 16 & (word)1);
        const word uds_st = (s[18] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 11) | (uds_tf << 53);
    }
    s[146] = s[142] ^ s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_67(word *restrict s, const word *restrict pi)
{
    s[157] = s[146];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_68(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[23] & (word)1);
        const word uds_tf = (word)0 - (s[23] >> 16 & (word)1);
        const word uds_st = (s[23] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 10) | (uds_tf << 54);
    }
    s[141] = s[130] ^ s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_69(word *restrict s, const word *restrict pi)
{
    s[117] = s[109] | s[114];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_70(word *restrict s, const word *restrict pi)
{
    s[131] = s[117] & s[111];
    s[125] = s[122] ^ s[117];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_71(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[71] & (word)1);
        const word uds_tf = (word)0 - (s[71] >> 14 & (word)1);
        const word uds_st = (s[71] & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[137] = ~(s[131] | s[196] | s[125]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_72(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[99] & (word)1);
        const word uds_tf = (word)0 - (s[99] >> 16 & (word)1);
        const word uds_st = (s[99] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[145] = s[137] | s[196] | s[141];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_73(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[40] & (word)1);
        const word uds_tf = (word)0 - (s[40] >> 16 & (word)1);
        const word uds_st = (s[40] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    s[98] = ~(s[90] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_74(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[59] & (word)1);
        const word uds_tf = (word)0 - (s[59] >> 16 & (word)1);
        const word uds_st = (s[59] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    s[110] = ~(s[98] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_75(word *restrict s, const word *restrict pi)
{
    s[96] = s[89] & s[86] & s[90];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_76(word *restrict s, const word *restrict pi)
{
    s[107] = ~(s[96] & s[101]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_77(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[89] & (word)1);
        const word uds_tf = (word)0 - (s[89] >> 16 & (word)1);
        const word uds_st = (s[89] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[85] & (word)1);
        const word uds_tf = (word)0 - (s[85] >> 16 & (word)1);
        const word uds_st = (s[85] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[123] = s[107] | s[196] | s[104] | s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_78(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[47] & (word)1);
        const word uds_tf = (word)0 - (s[47] >> 16 & (word)1);
        const word uds_st = (s[47] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[133] = ~(s[123] | s[196]);
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[76] & (word)1);
        const word uds_tf = (word)0 - (s[76] >> 16 & (word)1);
        const word uds_st = (s[76] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    s[127] = s[123] | s[122] | s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_79(word *restrict s, const word *restrict pi)
{
    s[134] = s[133] | s[127];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_80(word *restrict s, const word *restrict pi)
{
    s[150] = s[134] & s[137];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_81(word *restrict s, const word *restrict pi)
{
    s[126] = ~(s[119] | s[123]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_82(word *restrict s, const word *restrict pi)
{
    s[143] = ~(s[126] | s[130]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_83(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[4] & (word)1);
        const word uds_tf = (word)0 - (s[4] >> 16 & (word)1);
        const word uds_st = (s[4] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 7) | (uds_tf << 57);
    }
    s[105] = ~(s[96] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_84(word *restrict s, const word *restrict pi)
{
    s[120] = ~(s[105] ^ s[110]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_85(word *restrict s, const word *restrict pi)
{
    s[128] = s[120] | s[118];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_86(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[128] & (word)1);
        const word uds_tf = (word)0 - (s[128] >> 16 & (word)1);
        const word uds_st = (s[128] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[151] = ~(s[143] ^ s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_87(word *restrict s, const word *restrict pi)
{
    s[161] = s[151];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_88(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-5) */
        const word uds_bf = (word)0 - (s[115] & (word)1);
        const word uds_tf = (word)0 - (s[115] >> 16 & (word)1);
        const word uds_st = (s[115] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 5) | (uds_tf << 59);
    }
    s[165] = s[161] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_89(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[90] & (word)1);
        const word uds_tf = (word)0 - (s[90] >> 16 & (word)1);
        const word uds_st = (s[90] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[171] = s[165] | s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_90(word *restrict s, const word *restrict pi)
{
    s[163] = ~(s[157] | s[161]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_91(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (s[66] & (word)1);
        const word uds_tf = (word)0 - (s[66] >> 16 & (word)1);
        const word uds_st = (s[66] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 11) | (uds_tf << 53);
    }
    s[173] = ~(s[163] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_92(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[173] & (word)1);
        const word uds_tf = (word)0 - (s[173] >> 16 & (word)1);
        const word uds_st = (s[173] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[110] & (word)1);
        const word uds_tf = (word)0 - (s[110] >> 16 & (word)1);
        const word uds_st = (s[110] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 10) | (uds_tf << 54);
    }
    s[181] = ~(s[196] | s[197]);
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[171] & (word)1);
        const word uds_tf = (word)0 - (s[171] >> 16 & (word)1);
        const word uds_st = (s[171] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[173] & (word)1);
        const word uds_tf = (word)0 - (s[173] >> 16 & (word)1);
        const word uds_st = (s[173] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[177] = ~(s[196] & s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_93(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (s[73] & (word)1);
        const word uds_tf = (word)0 - (s[73] >> 15 & (word)1);
        const word uds_st = (s[73] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 13) | (uds_tf << 51);
    }
    s[187] = ~(s[177] ^ s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_94(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (s[51] & (word)1);
        const word uds_tf = (word)0 - (s[51] >> 16 & (word)1);
        const word uds_st = (s[51] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 14) | (uds_tf << 50);
    }
    s[176] = ~(s[173] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_95(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[141] & (word)1);
        const word uds_tf = (word)0 - (s[141] >> 16 & (word)1);
        const word uds_st = (s[141] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[128] & (word)1);
        const word uds_tf = (word)0 - (s[128] >> 16 & (word)1);
        const word uds_st = (s[128] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[148] = ~(s[196] | s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_96(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (s[72] & (word)1);
        const word uds_tf = (word)0 - (s[72] >> 16 & (word)1);
        const word uds_st = (s[72] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 9) | (uds_tf << 55);
    }
    s[162] = s[148] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_97(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[157] & (word)1);
        const word uds_tf = (word)0 - (s[157] >> 16 & (word)1);
        const word uds_st = (s[157] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[167] = ~(s[196] & s[162]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_98(word *restrict s, const word *restrict pi)
{
    s[182] = ~(s[171] & s[167]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_99(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-6) */
        const word uds_bf = (word)0 - (s[120] & (word)1);
        const word uds_tf = (word)0 - (s[120] >> 16 & (word)1);
        const word uds_st = (s[120] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 6) | (uds_tf << 58);
    }
    s[175] = s[167] ^ s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_100(word *restrict s, const word *restrict pi)
{
    s[178] = ~s[175];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_101(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (s[60] & (word)1);
        const word uds_tf = (word)0 - (s[60] >> 16 & (word)1);
        const word uds_st = (s[60] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 14) | (uds_tf << 50);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (s[61] & (word)1);
        const word uds_tf = (word)0 - (s[61] >> 15 & (word)1);
        const word uds_st = (s[61] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[197] = (uds_st >> 13) | (uds_tf << 51);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[102] & (word)1);
        const word uds_tf = (word)0 - (s[102] >> 16 & (word)1);
        const word uds_st = (s[102] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 10) | (uds_tf << 54);
    }
    s[194] = s[178] & s[196] & s[197] & s[198];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_102(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[167] & (word)1);
        const word uds_tf = (word)0 - (s[167] >> 15 & (word)1);
        const word uds_st = (s[167] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[110] & (word)1);
        const word uds_tf = (word)0 - (s[110] >> 16 & (word)1);
        const word uds_st = (s[110] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[170] = s[196] & s[197];
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[165] & (word)1);
        const word uds_tf = (word)0 - (s[165] >> 16 & (word)1);
        const word uds_st = (s[165] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[71] & (word)1);
        const word uds_tf = (word)0 - (s[71] >> 14 & (word)1);
        const word uds_st = (s[71] & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        s[197] = (uds_st >> 10) | (uds_tf << 54);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[167] & (word)1);
        const word uds_tf = (word)0 - (s[167] >> 15 & (word)1);
        const word uds_st = (s[167] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[198] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[169] = ~(s[196] | s[197] | s[198]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_103(word *restrict s, const word *restrict pi)
{
    s[183] = ~(s[169] | s[170]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_104(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[178] & (word)1);
        const word uds_tf = (word)0 - (s[178] >> 15 & (word)1);
        const word uds_st = (s[178] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[183] & (word)1);
        const word uds_tf = (word)0 - (s[183] >> 14 & (word)1);
        const word uds_st = (s[183] & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        s[197] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[192] = s[196] | s[197];
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (s[77] & (word)1);
        const word uds_tf = (word)0 - (s[77] >> 16 & (word)1);
        const word uds_st = (s[77] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 13) | (uds_tf << 51);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (s[84] & (word)1);
        const word uds_tf = (word)0 - (s[84] >> 16 & (word)1);
        const word uds_st = (s[84] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 13) | (uds_tf << 51);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (s[53] & (word)1);
        const word uds_tf = (word)0 - (s[53] >> 16 & (word)1);
        const word uds_st = (s[53] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 16) | (uds_tf << 48);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (s[72] & (word)1);
        const word uds_tf = (word)0 - (s[72] >> 16 & (word)1);
        const word uds_st = (s[72] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[199] = (uds_st >> 14) | (uds_tf << 50);
    }
    s[185] = ~(s[183] & s[196] & s[197] & s[198] & s[177] & s[199]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_105(word *restrict s, const word *restrict pi)
{
    s[140] = ~(s[128] | s[132]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_106(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[8] & (word)1);
        const word uds_tf = (word)0 - (s[8] >> 15 & (word)1);
        const word uds_st = (s[8] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 10) | (uds_tf << 54);
    }
    s[154] = ~(s[140] & s[141] & s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_107(word *restrict s, const word *restrict pi)
{
    s[158] = s[146] & s[154];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_108(word *restrict s, const word *restrict pi)
{
    s[136] = s[126] ^ s[128];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_109(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[136] & (word)1);
        const word uds_tf = (word)0 - (s[136] >> 16 & (word)1);
        const word uds_st = (s[136] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 7) | (uds_tf << 57);
    }
    { /* shifted field presentation (-15) */
        const word uds_bf = (word)0 - (s[67] & (word)1);
        const word uds_tf = (word)0 - (s[67] >> 16 & (word)1);
        const word uds_st = (s[67] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 15) | (uds_tf << 49);
    }
    s[152] = ~(s[196] & s[197]);
    s[147] = ~(s[140] ^ s[136]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_110(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[110] & (word)1);
        const word uds_tf = (word)0 - (s[110] >> 16 & (word)1);
        const word uds_st = (s[110] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[156] = ~(s[147] | s[145] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_111(word *restrict s, const word *restrict pi)
{
    s[166] = ~(s[156] & s[158]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_112(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[91] & (word)1);
        const word uds_tf = (word)0 - (s[91] >> 16 & (word)1);
        const word uds_st = (s[91] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    s[116] = s[105] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_113(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[116] & (word)1);
        const word uds_tf = (word)0 - (s[116] >> 16 & (word)1);
        const word uds_st = (s[116] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[90] & (word)1);
        const word uds_tf = (word)0 - (s[90] >> 16 & (word)1);
        const word uds_st = (s[90] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 7) | (uds_tf << 57);
    }
    s[124] = s[196] ^ s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_114(word *restrict s, const word *restrict pi)
{
    s[172] = s[166] & s[163] & s[124];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_115(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[97] & (word)1);
        const word uds_tf = (word)0 - (s[97] >> 16 & (word)1);
        const word uds_st = (s[97] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 7) | (uds_tf << 57);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[133] & (word)1);
        const word uds_tf = (word)0 - (s[133] >> 16 & (word)1);
        const word uds_st = (s[133] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[100] & (word)1);
        const word uds_tf = (word)0 - (s[100] >> 16 & (word)1);
        const word uds_st = (s[100] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 7) | (uds_tf << 57);
    }
    s[138] = ~(s[124] & s[196] & s[197] & s[198]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_116(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[143] & (word)1);
        const word uds_tf = (word)0 - (s[143] >> 16 & (word)1);
        const word uds_st = (s[143] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[153] = s[138] & s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_117(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[90] & (word)1);
        const word uds_tf = (word)0 - (s[90] >> 16 & (word)1);
        const word uds_st = (s[90] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[83] & (word)1);
        const word uds_tf = (word)0 - (s[83] >> 15 & (word)1);
        const word uds_st = (s[83] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[197] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[85] & (word)1);
        const word uds_tf = (word)0 - (s[85] >> 16 & (word)1);
        const word uds_st = (s[85] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[89] & (word)1);
        const word uds_tf = (word)0 - (s[89] >> 16 & (word)1);
        const word uds_st = (s[89] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[199] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[95] = ~(s[196] & s[197] & s[198] & s[199]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_118(word *restrict s, const word *restrict pi)
{
    s[108] = ~s[95];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_119(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[86] & (word)1);
        const word uds_tf = (word)0 - (s[86] >> 16 & (word)1);
        const word uds_st = (s[86] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[88] & (word)1);
        const word uds_tf = (word)0 - (s[88] >> 16 & (word)1);
        const word uds_st = (s[88] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[41] & (word)1);
        const word uds_tf = (word)0 - (s[41] >> 16 & (word)1);
        const word uds_st = (s[41] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 8) | (uds_tf << 56);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[87] & (word)1);
        const word uds_tf = (word)0 - (s[87] >> 16 & (word)1);
        const word uds_st = (s[87] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[199] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[75] & (word)1);
        const word uds_tf = (word)0 - (s[75] >> 15 & (word)1);
        const word uds_st = (s[75] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[200] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[129] = ~(s[116] & s[196] & s[121] & s[197] & s[198] & s[199] & s[200] & s[108] & s[118]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_120(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[129] & (word)1);
        const word uds_tf = (word)0 - (s[129] >> 16 & (word)1);
        const word uds_st = (s[129] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[130] & (word)1);
        const word uds_tf = (word)0 - (s[130] >> 16 & (word)1);
        const word uds_st = (s[130] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (s[15] & (word)1);
        const word uds_tf = (word)0 - (s[15] >> 16 & (word)1);
        const word uds_st = (s[15] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 14) | (uds_tf << 50);
    }
    s[139] = ~(s[196] | s[197] | s[198]);
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[44] & (word)1);
        const word uds_tf = (word)0 - (s[44] >> 15 & (word)1);
        const word uds_st = (s[44] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[196] = (uds_st >> 8) | (uds_tf << 56);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[53] & (word)1);
        const word uds_tf = (word)0 - (s[53] >> 16 & (word)1);
        const word uds_st = (s[53] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[135] = s[129] & s[196] & s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_121(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[135] & (word)1);
        const word uds_tf = (word)0 - (s[135] >> 16 & (word)1);
        const word uds_st = (s[135] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[149] = s[196] | s[139];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_122(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[150] & (word)1);
        const word uds_tf = (word)0 - (s[150] >> 16 & (word)1);
        const word uds_st = (s[150] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    s[160] = ~(s[196] & s[149]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_123(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-7) */
        const word uds_bf = (word)0 - (s[129] & (word)1);
        const word uds_tf = (word)0 - (s[129] >> 16 & (word)1);
        const word uds_st = (s[129] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 7) | (uds_tf << 57);
    }
    { /* shifted field presentation (-14) */
        const word uds_bf = (word)0 - (s[66] & (word)1);
        const word uds_tf = (word)0 - (s[66] >> 16 & (word)1);
        const word uds_st = (s[66] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 14) | (uds_tf << 50);
    }
    s[184] = ~(s[170] & s[160] & s[196] & s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_124(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-10) */
        const word uds_bf = (word)0 - (s[112] & (word)1);
        const word uds_tf = (word)0 - (s[112] >> 16 & (word)1);
        const word uds_st = (s[112] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 10) | (uds_tf << 54);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[133] & (word)1);
        const word uds_tf = (word)0 - (s[133] >> 16 & (word)1);
        const word uds_st = (s[133] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[191] = ~(s[184] | s[196] | s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_125(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[109] & (word)1);
        const word uds_tf = (word)0 - (s[109] >> 16 & (word)1);
        const word uds_st = (s[109] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[144] = s[135] ^ s[196];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_126(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[145] & (word)1);
        const word uds_tf = (word)0 - (s[145] >> 16 & (word)1);
        const word uds_st = (s[145] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-4) */
        const word uds_bf = (word)0 - (s[144] & (word)1);
        const word uds_tf = (word)0 - (s[144] >> 16 & (word)1);
        const word uds_st = (s[144] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 4) | (uds_tf << 60);
    }
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (s[10] & (word)1);
        const word uds_tf = (word)0 - (s[10] >> 16 & (word)1);
        const word uds_st = (s[10] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 16) | (uds_tf << 48);
    }
    s[159] = ~(s[196] & s[197] & s[153] & s[198]);
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (s[46] & (word)1);
        const word uds_tf = (word)0 - (s[46] >> 16 & (word)1);
        const word uds_st = (s[46] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 11) | (uds_tf << 53);
    }
    s[155] = ~(s[150] ^ s[196] ^ s[144]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_127(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[126] & (word)1);
        const word uds_tf = (word)0 - (s[126] >> 16 & (word)1);
        const word uds_st = (s[126] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-11) */
        const word uds_bf = (word)0 - (s[54] & (word)1);
        const word uds_tf = (word)0 - (s[54] >> 16 & (word)1);
        const word uds_st = (s[54] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 11) | (uds_tf << 53);
    }
    s[164] = ~(s[155] | s[196] | s[156] | s[197]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_128(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[135] & (word)1);
        const word uds_tf = (word)0 - (s[135] >> 16 & (word)1);
        const word uds_st = (s[135] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    s[174] = ~(s[163] | s[164] | s[196]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_129(word *restrict s, const word *restrict pi)
{
    s[180] = ~(s[172] & s[174]);
}

__attribute__((noinline, visibility("hidden")))
void uds_block_130(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-2) */
        const word uds_bf = (word)0 - (s[180] & (word)1);
        const word uds_tf = (word)0 - (s[180] >> 16 & (word)1);
        const word uds_st = (s[180] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 2) | (uds_tf << 62);
    }
    { /* shifted field presentation (-13) */
        const word uds_bf = (word)0 - (s[73] & (word)1);
        const word uds_tf = (word)0 - (s[73] >> 15 & (word)1);
        const word uds_st = (s[73] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[197] = (uds_st >> 13) | (uds_tf << 51);
    }
    s[195] = s[196] & s[197];
    { /* shifted field presentation (-16) */
        const word uds_bf = (word)0 - (s[15] & (word)1);
        const word uds_tf = (word)0 - (s[15] >> 16 & (word)1);
        const word uds_st = (s[15] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 16) | (uds_tf << 48);
    }
    s[193] = s[180] & s[196] & s[176] & s[182];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[180] & (word)1);
        const word uds_tf = (word)0 - (s[180] >> 16 & (word)1);
        const word uds_st = (s[180] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (s[75] & (word)1);
        const word uds_tf = (word)0 - (s[75] >> 15 & (word)1);
        const word uds_st = (s[75] & (word)0xffff) | (uds_tf & ~(word)0xffff);
        s[197] = (uds_st >> 12) | (uds_tf << 52);
    }
    s[190] = s[196] ^ s[197];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[183] & (word)1);
        const word uds_tf = (word)0 - (s[183] >> 14 & (word)1);
        const word uds_st = (s[183] & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[180] & (word)1);
        const word uds_tf = (word)0 - (s[180] >> 16 & (word)1);
        const word uds_st = (s[180] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-8) */
        const word uds_bf = (word)0 - (s[134] & (word)1);
        const word uds_tf = (word)0 - (s[134] >> 16 & (word)1);
        const word uds_st = (s[134] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[198] = (uds_st >> 8) | (uds_tf << 56);
    }
    s[188] = s[196] | s[197] | s[198];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_131(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-3) */
        const word uds_bf = (word)0 - (s[164] & (word)1);
        const word uds_tf = (word)0 - (s[164] >> 16 & (word)1);
        const word uds_st = (s[164] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[196] = (uds_st >> 3) | (uds_tf << 61);
    }
    { /* shifted field presentation (-12) */
        const word uds_bf = (word)0 - (s[78] & (word)1);
        const word uds_tf = (word)0 - (s[78] >> 16 & (word)1);
        const word uds_st = (s[78] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 12) | (uds_tf << 52);
    }
    s[168] = s[196] | s[197];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_132(word *restrict s, const word *restrict pi)
{
    s[179] = s[168];
}

__attribute__((noinline, visibility("hidden")))
void uds_block_133(word *restrict s, const word *restrict pi)
{
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[179] & (word)1);
        const word uds_tf = (word)0 - (s[179] >> 13 & (word)1);
        const word uds_st = (s[179] & (word)0x3fff) | (uds_tf & ~(word)0x3fff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    { /* shifted field presentation (-9) */
        const word uds_bf = (word)0 - (s[136] & (word)1);
        const word uds_tf = (word)0 - (s[136] >> 16 & (word)1);
        const word uds_st = (s[136] & (word)0x1ffff) | (uds_tf & ~(word)0x1ffff);
        s[197] = (uds_st >> 9) | (uds_tf << 55);
    }
    s[189] = s[196] | s[197];
    { /* shifted field presentation (-1) */
        const word uds_bf = (word)0 - (s[184] & (word)1);
        const word uds_tf = (word)0 - (s[184] >> 14 & (word)1);
        const word uds_st = (s[184] & (word)0x7fff) | (uds_tf & ~(word)0x7fff);
        s[196] = (uds_st >> 1) | (uds_tf << 63);
    }
    s[186] = ~(s[196] | s[181] | s[179]);
}

void uds_run(word *restrict s, const word *restrict pi,
             void (*tick)(void *, uint32_t), void *ctx)
{
    uds_block_0(s, pi);
    if (tick) tick(ctx, 0u);
    uds_block_1(s, pi);
    if (tick) tick(ctx, 1u);
    uds_block_2(s, pi);
    if (tick) tick(ctx, 2u);
    uds_block_3(s, pi);
    if (tick) tick(ctx, 3u);
    uds_block_4(s, pi);
    if (tick) tick(ctx, 4u);
    uds_block_5(s, pi);
    if (tick) tick(ctx, 5u);
    uds_block_6(s, pi);
    if (tick) tick(ctx, 6u);
    uds_block_7(s, pi);
    if (tick) tick(ctx, 7u);
    uds_block_8(s, pi);
    if (tick) tick(ctx, 8u);
    uds_block_9(s, pi);
    if (tick) tick(ctx, 9u);
    uds_block_10(s, pi);
    if (tick) tick(ctx, 10u);
    uds_block_11(s, pi);
    if (tick) tick(ctx, 11u);
    uds_block_12(s, pi);
    if (tick) tick(ctx, 12u);
    uds_block_13(s, pi);
    if (tick) tick(ctx, 13u);
    uds_block_14(s, pi);
    if (tick) tick(ctx, 14u);
    uds_block_15(s, pi);
    if (tick) tick(ctx, 15u);
    uds_block_16(s, pi);
    if (tick) tick(ctx, 16u);
    uds_block_17(s, pi);
    if (tick) tick(ctx, 17u);
    uds_block_18(s, pi);
    if (tick) tick(ctx, 18u);
    uds_block_19(s, pi);
    if (tick) tick(ctx, 19u);
    uds_block_20(s, pi);
    if (tick) tick(ctx, 20u);
    uds_block_21(s, pi);
    if (tick) tick(ctx, 21u);
    uds_block_22(s, pi);
    if (tick) tick(ctx, 22u);
    uds_block_23(s, pi);
    if (tick) tick(ctx, 23u);
    uds_block_24(s, pi);
    if (tick) tick(ctx, 24u);
    uds_block_25(s, pi);
    if (tick) tick(ctx, 25u);
    uds_block_26(s, pi);
    if (tick) tick(ctx, 26u);
    uds_block_27(s, pi);
    if (tick) tick(ctx, 27u);
    uds_block_28(s, pi);
    if (tick) tick(ctx, 28u);
    uds_block_29(s, pi);
    if (tick) tick(ctx, 29u);
    uds_block_30(s, pi);
    if (tick) tick(ctx, 30u);
    uds_block_31(s, pi);
    if (tick) tick(ctx, 31u);
    uds_block_32(s, pi);
    if (tick) tick(ctx, 32u);
    uds_block_33(s, pi);
    if (tick) tick(ctx, 33u);
    uds_block_34(s, pi);
    if (tick) tick(ctx, 34u);
    uds_block_35(s, pi);
    if (tick) tick(ctx, 35u);
    uds_block_36(s, pi);
    if (tick) tick(ctx, 36u);
    uds_block_37(s, pi);
    if (tick) tick(ctx, 37u);
    uds_block_38(s, pi);
    if (tick) tick(ctx, 38u);
    uds_block_39(s, pi);
    if (tick) tick(ctx, 39u);
    uds_block_40(s, pi);
    if (tick) tick(ctx, 40u);
    uds_block_41(s, pi);
    if (tick) tick(ctx, 41u);
    uds_block_42(s, pi);
    if (tick) tick(ctx, 42u);
    uds_block_43(s, pi);
    if (tick) tick(ctx, 43u);
    uds_block_44(s, pi);
    if (tick) tick(ctx, 44u);
    uds_block_45(s, pi);
    if (tick) tick(ctx, 45u);
    uds_block_46(s, pi);
    if (tick) tick(ctx, 46u);
    uds_block_47(s, pi);
    if (tick) tick(ctx, 47u);
    uds_block_48(s, pi);
    if (tick) tick(ctx, 48u);
    uds_block_49(s, pi);
    if (tick) tick(ctx, 49u);
    uds_block_50(s, pi);
    if (tick) tick(ctx, 50u);
    uds_block_51(s, pi);
    if (tick) tick(ctx, 51u);
    uds_block_52(s, pi);
    if (tick) tick(ctx, 52u);
    uds_block_53(s, pi);
    if (tick) tick(ctx, 53u);
    uds_block_54(s, pi);
    if (tick) tick(ctx, 54u);
    uds_block_55(s, pi);
    if (tick) tick(ctx, 55u);
    uds_block_56(s, pi);
    if (tick) tick(ctx, 56u);
    uds_block_57(s, pi);
    if (tick) tick(ctx, 57u);
    uds_block_58(s, pi);
    if (tick) tick(ctx, 58u);
    uds_block_59(s, pi);
    if (tick) tick(ctx, 59u);
    uds_block_60(s, pi);
    if (tick) tick(ctx, 60u);
    uds_block_61(s, pi);
    if (tick) tick(ctx, 61u);
    uds_block_62(s, pi);
    if (tick) tick(ctx, 62u);
    uds_block_63(s, pi);
    if (tick) tick(ctx, 63u);
    uds_block_64(s, pi);
    if (tick) tick(ctx, 64u);
    uds_block_65(s, pi);
    if (tick) tick(ctx, 65u);
    uds_block_66(s, pi);
    if (tick) tick(ctx, 66u);
    uds_block_67(s, pi);
    if (tick) tick(ctx, 67u);
    uds_block_68(s, pi);
    if (tick) tick(ctx, 68u);
    uds_block_69(s, pi);
    if (tick) tick(ctx, 69u);
    uds_block_70(s, pi);
    if (tick) tick(ctx, 70u);
    uds_block_71(s, pi);
    if (tick) tick(ctx, 71u);
    uds_block_72(s, pi);
    if (tick) tick(ctx, 72u);
    uds_block_73(s, pi);
    if (tick) tick(ctx, 73u);
    uds_block_74(s, pi);
    if (tick) tick(ctx, 74u);
    uds_block_75(s, pi);
    if (tick) tick(ctx, 75u);
    uds_block_76(s, pi);
    if (tick) tick(ctx, 76u);
    uds_block_77(s, pi);
    if (tick) tick(ctx, 77u);
    uds_block_78(s, pi);
    if (tick) tick(ctx, 78u);
    uds_block_79(s, pi);
    if (tick) tick(ctx, 79u);
    uds_block_80(s, pi);
    if (tick) tick(ctx, 80u);
    uds_block_81(s, pi);
    if (tick) tick(ctx, 81u);
    uds_block_82(s, pi);
    if (tick) tick(ctx, 82u);
    uds_block_83(s, pi);
    if (tick) tick(ctx, 83u);
    uds_block_84(s, pi);
    if (tick) tick(ctx, 84u);
    uds_block_85(s, pi);
    if (tick) tick(ctx, 85u);
    uds_block_86(s, pi);
    if (tick) tick(ctx, 86u);
    uds_block_87(s, pi);
    if (tick) tick(ctx, 87u);
    uds_block_88(s, pi);
    if (tick) tick(ctx, 88u);
    uds_block_89(s, pi);
    if (tick) tick(ctx, 89u);
    uds_block_90(s, pi);
    if (tick) tick(ctx, 90u);
    uds_block_91(s, pi);
    if (tick) tick(ctx, 91u);
    uds_block_92(s, pi);
    if (tick) tick(ctx, 92u);
    uds_block_93(s, pi);
    if (tick) tick(ctx, 93u);
    uds_block_94(s, pi);
    if (tick) tick(ctx, 94u);
    uds_block_95(s, pi);
    if (tick) tick(ctx, 95u);
    uds_block_96(s, pi);
    if (tick) tick(ctx, 96u);
    uds_block_97(s, pi);
    if (tick) tick(ctx, 97u);
    uds_block_98(s, pi);
    if (tick) tick(ctx, 98u);
    uds_block_99(s, pi);
    if (tick) tick(ctx, 99u);
    uds_block_100(s, pi);
    if (tick) tick(ctx, 100u);
    uds_block_101(s, pi);
    if (tick) tick(ctx, 101u);
    uds_block_102(s, pi);
    if (tick) tick(ctx, 102u);
    uds_block_103(s, pi);
    if (tick) tick(ctx, 103u);
    uds_block_104(s, pi);
    if (tick) tick(ctx, 104u);
    uds_block_105(s, pi);
    if (tick) tick(ctx, 105u);
    uds_block_106(s, pi);
    if (tick) tick(ctx, 106u);
    uds_block_107(s, pi);
    if (tick) tick(ctx, 107u);
    uds_block_108(s, pi);
    if (tick) tick(ctx, 108u);
    uds_block_109(s, pi);
    if (tick) tick(ctx, 109u);
    uds_block_110(s, pi);
    if (tick) tick(ctx, 110u);
    uds_block_111(s, pi);
    if (tick) tick(ctx, 111u);
    uds_block_112(s, pi);
    if (tick) tick(ctx, 112u);
    uds_block_113(s, pi);
    if (tick) tick(ctx, 113u);
    uds_block_114(s, pi);
    if (tick) tick(ctx, 114u);
    uds_block_115(s, pi);
    if (tick) tick(ctx, 115u);
    uds_block_116(s, pi);
    if (tick) tick(ctx, 116u);
    uds_block_117(s, pi);
    if (tick) tick(ctx, 117u);
    uds_block_118(s, pi);
    if (tick) tick(ctx, 118u);
    uds_block_119(s, pi);
    if (tick) tick(ctx, 119u);
    uds_block_120(s, pi);
    if (tick) tick(ctx, 120u);
    uds_block_121(s, pi);
    if (tick) tick(ctx, 121u);
    uds_block_122(s, pi);
    if (tick) tick(ctx, 122u);
    uds_block_123(s, pi);
    if (tick) tick(ctx, 123u);
    uds_block_124(s, pi);
    if (tick) tick(ctx, 124u);
    uds_block_125(s, pi);
    if (tick) tick(ctx, 125u);
    uds_block_126(s, pi);
    if (tick) tick(ctx, 126u);
    uds_block_127(s, pi);
    if (tick) tick(ctx, 127u);
    uds_block_128(s, pi);
    if (tick) tick(ctx, 128u);
    uds_block_129(s, pi);
    if (tick) tick(ctx, 129u);
    uds_block_130(s, pi);
    if (tick) tick(ctx, 130u);
    uds_block_131(s, pi);
    if (tick) tick(ctx, 131u);
    uds_block_132(s, pi);
    if (tick) tick(ctx, 132u);
    uds_block_133(s, pi);
    if (tick) tick(ctx, 133u);
}
