package main

// Pinned output digests. TestPins recomputes them; a change to the
// simulator's results must update them deliberately.

// figureDigests are summaryDigest of each figure's summary at
// figBudget/figWarmup.
var figureDigests = map[string]string{
	"fig6":  "1e8a8462598fdd00",
	"fig8":  "cb8ce6044abbf81f",
	"fig11": "8cb8da25ab9255a0",
}

// campaignDigests are outcomeDigest of each case's outcome vector under
// plan k of the family, at campaign sizes.
var campaignDigests = map[string][planFamily]string{
	"srt-compress": {"e351aeb54d46fb96", "37d79912c990e1a8", "24d5f3b6f82d4093", "7b7d068160f9a0bf", "bc027a277229ea83", "eb516731565055e0", "1fc52b0216efb224", "476e290511da6201", "caad78264586250e", "62461d9f8bda72b3", "dc8362ee7472cc7c", "4b3cd368341eb90b", "dd632f8938f812c5", "57a81aa5928376e8", "96e986d53028fc9e", "7900db5f75af6ac7"},
	"crt-gcc+swim": {"f1be91086650db7b", "e564bf2cbb40a671", "2c7d523b1ddd8262", "2e7a04f32fee9e6e", "aaac70a786cd9eab", "585940516317ca8b", "7f20c8e0fb7d9772", "2223716c8c0dd939", "02b7da7495c276d8", "508e3a4dd78e7869", "546fabdb4b67ebb1", "b63459946b411bb3", "30be999bb70f1145", "6e741196e96bc1d2", "edc491cccf638f92", "a2d2fe61e04524f1"},
	"srtr-gcc":     {"3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040", "3aea47be2a421040"},
	"adaptive-gcc": {"4ceb73f437ab2536", "68f7e39c73875354", "4ed551bcc9eb3c3a", "ef4b9c73b8a9e646", "ee31ca0f337fc82e", "958d85c764e99ebe", "cb16129555843980", "1badc30e37168bb6", "9016bbbfa489b80a", "169f04df0cef17f2", "ff918fcb9f1b7a96", "b1f4d7523db4d3a5", "55d113c6060fc7ac", "a7a72cd7fb1461a6", "f2850fcd68421bef", "732efcab75842604"},
}
