# Hand-written input for the request-path digest golden. The leading
# three methods are the drivers (the convention for apps given as a file);
# the third one loops, so under hfopti its helper is hot and kept out of
# outlining while the other two helpers share their common sequence.
.app TextGolden
.file classes.dex
.class LMain
.method first regs=4 ins=2
    invoke v0, LMain.scale (v2, v3)
    return v0
.end method
.method second regs=4 ins=2
    invoke v0, LMain.mix (v2, v3)
    return v0
.end method
.method third regs=5 ins=2
    const v0, 0
    move v1, v3
  :loop
    if-eqz v1, :done
    invoke v2, LMain.blend (v1, v4)
    add v0, v0, v2
    add-lit v1, v1, -1
    goto :loop
  :done
    return v0
.end method
.method scale regs=4 ins=2
    shl v0, v2, v3
    const v1, 3
    shr v1, v0, v1
    add v0, v0, v1
    mul v1, v0, v3
    xor v0, v0, v1
    sub v1, v0, v2
    and v0, v0, v1
    or v1, v0, v3
    add v0, v0, v1
    mul v1, v0, v0
    xor v0, v0, v1
    return v0
.end method
.method mix regs=4 ins=2
    shl v0, v2, v3
    const v1, 3
    shr v1, v0, v1
    add v0, v0, v1
    mul v1, v0, v3
    xor v0, v0, v1
    sub v1, v0, v2
    and v0, v0, v1
    or v1, v0, v3
    add v0, v0, v1
    mul v1, v0, v0
    xor v0, v0, v1
    add v0, v0, v2
    return v0
.end method
.method blend regs=4 ins=2
    shl v0, v2, v3
    const v1, 3
    shr v1, v0, v1
    add v0, v0, v1
    mul v1, v0, v3
    xor v0, v0, v1
    sub v1, v0, v2
    and v0, v0, v1
    or v1, v0, v3
    add v0, v0, v1
    mul v1, v0, v0
    xor v0, v0, v1
    sub v0, v0, v3
    return v0
.end method
.end class
.end file
